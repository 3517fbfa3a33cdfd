#!/usr/bin/env bash
# Tiered verification for the Ekya workspace. Run from the repo root.
#
#   ./ci.sh quick   — fmt + clippy + ekya-lint + the ekya-nn unit tests
#                     (≈1 s in release: the GEMM kernel, training-step,
#                     frozen-input and inference-pass bit-identity
#                     oracles) + the four fnv1a byte pins a training-bit
#                     change would move (RunReport, trace, cloud,
#                     status_view; ≈0.3 s warm) + the ekya-server unit
#                     tests (actor mailboxes, serving slots incl. the
#                     poisoned-slot outcome, trainer swaps) and the
#                     harness-pool unit tests (harness::) + the daemon's
#                     serving suite (ekya-server's tests/serve.rs:
#                     per-stream slots, hot-swaps, shutdown, the status
#                     pin) + a quick-mode harness
#                     smoke across several bins (including a 2-shard +
#                     ekya_grid merge byte-identity check and a supervised
#                     ekya_grid run with an injected shard kill) + the
#                     thief scheduler at fleet scale (scheduler_runtime,
#                     whose check is that every schedule fits its GPU
#                     budget) + the serving smoke (ekya_serve ≡
#                     ekya_loadgen snapshot bytes) + the repo
#                     benchmark's four-workload
#                     `--smoke --trace 1` pass (so a change to the API
#                     examples/ekya_e2e pins breaks here, not at the next
#                     benchmark run). Minutes, not tens of minutes; what
#                     the CI quick job runs.
#   ./ci.sh full    — the complete sweep: formatting, lints, rustdoc
#                     (deny warnings), the release build, every target
#                     (examples, bins), and the full test suite — built
#                     first, then run under a 4 GB address-space cap, so
#                     an unbounded queue fails as an allocation error in
#                     seconds. The default.
set -euo pipefail
cd "$(dirname "$0")"

MODE="${1:-full}"

lint() {
  echo "==> cargo fmt --check"
  # Formatting is enforced on the workspace's own crates. Vendored shims in
  # vendor/ are also covered — they are first-party code here.
  cargo fmt --all --check

  echo "==> cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings

  # Determinism & reproducibility rules (unordered-iter, ambient-env,
  # wallclock-in-cell, ambient-rng, silent-default-metric) — see
  # crates/ekya-bench/README.md, "Determinism invariants and ekya-lint".
  echo "==> ekya-lint (workspace determinism rules)"
  cargo run --release -q -p ekya-lint --bin ekya_lint
}

case "$MODE" in
  quick)
    lint

    # The nn oracles pin every kernel and forward-pass shortcut to its
    # reference bit for bit (GEMM vs naive folds, freeze-once training vs
    # per-epoch, the inference pass's class vs training's softmax argmax).
    # They take about a second in release, so the fast tier runs them too.
    echo "==> cargo test --release -q -p ekya-nn (kernel, frozen-input, classify oracles)"
    cargo test --release -q -p ekya-nn

    # The fnv1a byte pins downstream of the nn: the simulator's RunReport
    # and window trace, the cloud baseline's report, and the daemon's
    # status_view. A kernel or training change that moves one bit of a
    # trained weight moves one of these, so the fast tier runs them too.
    echo "==> cargo test --release -q (RunReport, trace, cloud, status_view fnv1a pins)"
    cargo test --release -q -p ekya-sim -p ekya-baselines -p ekya-server pinned_across_refactors

    # The concurrency primitives the trainers, the daemon and the grid
    # ride on: ekya-server's unit tests — the actor mailboxes
    # (std::sync::mpsc — backpressure, arrival order, supervised
    # restarts, asks that fail instead of hanging; trainer jobs ride
    # them, daemon frames do not), the per-stream serving slots (a panic
    # while classifying poisons one stream, the rest keep serving) and
    # the trainer's swaps — and the grid harness's shared-queue pool
    # (item order, panic isolation, cells running at the same time).
    # Under a second in release.
    echo "==> cargo test --release -q (ekya-server lib: actors, slots, trainer; harness:: pool)"
    cargo test --release -q -p ekya-server --lib
    cargo test --release -q -p ekya-bench --lib harness::

    # The daemon's serving suite: frames classified while trainers run,
    # hot-swaps visible and monotone, clients that reach later
    # admissions and are refused after shutdown, typed admission and
    # malformed-frame refusals, the paper preset's shape invariance.
    echo "==> cargo test --release -q -p ekya-server --test serve (daemon serving suite)"
    cargo test --release -q -p ekya-server --test serve

    echo "==> cargo build --release -p ekya-bench (harness + launcher bins)"
    cargo build --release -p ekya-bench --bins

    # Quick-mode grid smoke across several bins: the declarative grids
    # shrink under EKYA_QUICK=1 and the harness fans them out across
    # EKYA_WORKERS threads.
    echo "==> harness smoke: fig06_streams (quick grid)"
    EKYA_QUICK=1 EKYA_WINDOWS=2 cargo run --release -q -p ekya-bench --bin fig06_streams

    # Sharded execution smoke: split the same quick grid across two
    # shard processes, merge the shard reports, and require the merged
    # file to be byte-identical to the unsharded run above (the harness's
    # sharding guarantee, checked with plain cmp).
    echo "==> harness smoke: 2-shard fig06 + ekya_grid merge (union ≡ unsharded, byte for byte)"
    mkdir -p target
    cp results/fig06_streams.json target/fig06_unsharded.json
    EKYA_QUICK=1 EKYA_WINDOWS=2 EKYA_SHARD=0/2 \
      cargo run --release -q -p ekya-bench --bin fig06_streams
    EKYA_QUICK=1 EKYA_WINDOWS=2 EKYA_SHARD=1/2 \
      cargo run --release -q -p ekya-bench --bin fig06_streams
    cargo run --release -q -p ekya-bench --bin ekya_grid -- merge \
      results/fig06_streams_shard0of2.json results/fig06_streams_shard1of2.json \
      -o results/fig06_streams.json
    cmp results/fig06_streams.json target/fig06_unsharded.json
    echo "    shard union ≡ unsharded ✓"

    # Supervised execution smoke: one ekya_grid command replaces the
    # N-terminal workflow above. It runs fig07_provisioning — the
    # per-dataset trace-record + replay bin ported onto Scenario cells —
    # across 4 shard processes, kills shard 0 on purpose after its first
    # cell, retries it with resume, merges in-process, and verifies the
    # merged report against an unsharded reference run. The plain cmp
    # repeats the byte-identity check independently of the supervisor's
    # own verify.
    echo "==> harness smoke: fig07_provisioning (quick replay grid, unsharded reference)"
    EKYA_QUICK=1 EKYA_WINDOWS=2 EKYA_STREAMS=4 \
      cargo run --release -q -p ekya-bench --bin fig07_provisioning
    cp results/fig07_provisioning.json target/fig07_unsharded.json

    echo "==> orchestrator smoke: ekya_grid run fig07 (4 shards, 1 injected kill) ≡ unsharded"
    rm -rf target/orchestrate_smoke
    EKYA_QUICK=1 EKYA_WINDOWS=2 EKYA_STREAMS=4 \
      cargo run --release -q -p ekya-bench --bin ekya_grid -- \
      run --bin fig07_provisioning --shards 4 --max-retries 2 --inject-crash 0:1 \
      --backoff-ms 100 --run-dir target/orchestrate_smoke --no-promote \
      --verify-against target/fig07_unsharded.json
    cargo run --release -q -p ekya-bench --bin ekya_grid -- \
      status --run-dir target/orchestrate_smoke
    cmp target/orchestrate_smoke/fig07_provisioning.json target/fig07_unsharded.json
    echo "    supervised run (crash-retried) ≡ unsharded ✓"

    # fig03's whole configuration sweep takes well under a second, so the
    # bin does not shard: under EKYA_SHARD it warns and writes the full
    # fig03_configs.json, byte-identical to the plain run.
    echo "==> harness smoke: fig03_configs ignores EKYA_SHARD (full sweep, byte for byte)"
    EKYA_QUICK=1 cargo run --release -q -p ekya-bench --bin fig03_configs >/dev/null
    cp results/fig03_configs.json target/fig03_unsharded.json
    EKYA_QUICK=1 EKYA_SHARD=1/2 cargo run --release -q -p ekya-bench --bin fig03_configs >/dev/null
    cmp results/fig03_configs.json target/fig03_unsharded.json
    echo "    EKYA_SHARD=1/2 run ≡ unsharded ✓"

    echo "==> harness smoke: fig08_factors (quick replay grid)"
    EKYA_QUICK=1 EKYA_WINDOWS=2 EKYA_STREAMS=4 \
      cargo run --release -q -p ekya-bench --bin fig08_factors

    # The thief scheduler from the paper's 10-stream shape to 100/200/400
    # streams (≈3 s). The bin's own check is that every schedule fits its
    # GPU budget; no step here gates on a wall clock, but a scheduler that
    # went back to re-walking every stream per steal attempt would make
    # this a ~70 s step in the log.
    echo "==> scheduler smoke: scheduler_runtime (10 → 400 streams, allocation within budget)"
    cargo run --release -q -p ekya-bench --bin scheduler_runtime

    # Serving-path smoke: a short ekya_serve daemon run (admission +
    # per-window atomic snapshots), its own snapshot validator, and a
    # small ekya_loadgen pass over the same seed — whose snapshot must be
    # byte-identical to the daemon's (the serving determinism contract,
    # checked with plain cmp because both bins ran the same fleet).
    # The daemon run is traced (EKYA_TRACE=1): the logical-plane window
    # trace lands in results/TRACE_serve.jsonl — a separate artifact, so
    # the serve_status.json byte-identity cmp below is unaffected — and
    # ekya_trace validates its invariants (sorted records, contiguous
    # windows, merge-safe counters) as part of the smoke.
    echo "==> serving smoke: ekya_serve (8 streams × 2 windows, traced) + snapshot validation"
    EKYA_STREAMS_LIVE=8 EKYA_WINDOWS=2 EKYA_TRACE=1 \
      cargo run --release -q -p ekya-bench --bin ekya_serve
    cargo run --release -q -p ekya-bench --bin ekya_serve -- --validate
    echo "==> serving smoke: ekya_trace validate (window trace invariants)"
    cargo run --release -q -p ekya-bench --bin ekya_trace -- \
      validate results/TRACE_serve.jsonl
    cp results/serve_status.json target/serve_status_daemon.json
    echo "==> serving smoke: ekya_loadgen (same fleet) ≡ ekya_serve snapshot"
    EKYA_STREAMS_LIVE=8 EKYA_WINDOWS=2 \
      cargo run --release -q -p ekya-bench --bin ekya_loadgen
    cmp results/serve_status.json target/serve_status_daemon.json
    echo "    loadgen snapshot ≡ daemon snapshot ✓"

    # The repo benchmark is a package of its own (not a workspace member),
    # so nothing above compiles it. Its smoke pass builds it against this
    # checkout and runs every workload once, plain and traced, with its
    # own output checks (non-zero exit on any) — ≈15 s after the build.
    # The metric tables go to results/e2e/; stdout is only a copy.
    echo "==> benchmark smoke: ekya_e2e (four workloads, --smoke --trace 1)"
    for workload in serve-steady retrain-window fleet-plan grid-fig06; do
      cargo run --release --offline --quiet --manifest-path examples/ekya_e2e/Cargo.toml -- \
        --workload "$workload" --seed 1 --smoke --trace 1 >/dev/null
    done

    echo "ci.sh quick: all green"
    ;;

  full)
    lint

    echo "==> cargo doc --workspace --no-deps (deny warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

    echo "==> cargo build --release"
    cargo build --release

    echo "==> cargo build --examples --bins"
    cargo build --examples --bins

    # Build the tests uncapped (rustc and the linker map far more than
    # they use), then run them under an address-space cap: a mailbox or
    # queue that grows without bound dies here with an allocation error
    # in seconds instead of taking the runner down.
    echo "==> cargo test -q --no-run"
    cargo test -q --no-run
    echo "==> cargo test -q (ulimit -v 4000000)"
    (
      ulimit -v 4000000
      cargo test -q
    )

    echo "ci.sh full: all green"
    ;;

  *)
    echo "usage: $0 [quick|full]" >&2
    exit 2
    ;;
esac
