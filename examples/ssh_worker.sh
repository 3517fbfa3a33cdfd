#!/usr/bin/env sh
# ssh_worker.sh — run an ekya_grid shard worker on a remote machine.
#
# The ekya_grid supervisor launches each shard as
#   <program> worker --bin <BIN>
# with the shard's knobs in EKYA_* environment variables. The program is
# a plain path (--worker-program), so this wrapper is a complete
# multi-machine fan-out hook: it forwards the knobs over ssh and invokes
# a remote ekya_grid binary in worker mode. No supervisor change needed.
#
# Requirements:
#   * EKYA_SSH_HOST    — user@host to run the shard on (required).
#   * EKYA_SSH_BIN     — path of the ekya_grid binary on the remote
#                        (default: ekya_grid on the remote PATH).
#   * The run directory must be a SHARED path (NFS or similar) visible
#     at the same location on both machines: the supervisor monitors the
#     shard's .partial.json checkpoint and reads its final report from
#     EKYA_RESULTS_DIR, which this wrapper forwards verbatim. Override
#     the remote-side path with EKYA_SSH_RESULTS_DIR if the share is
#     mounted elsewhere (heartbeat monitoring then rides the share's
#     attribute freshness — mount with actimeo low enough to beat your
#     --stall-timeout).
#
# Usage (one shard per remote host class):
#   cargo run --release -p ekya-bench --bin ekya_grid -- \
#     run --bin fig07_provisioning --shards 8 \
#     --worker-program examples/ssh_worker.sh
#
# See "Multi-machine fan-out over ssh" in crates/ekya-bench/README.md.
set -eu

: "${EKYA_SSH_HOST:?set EKYA_SSH_HOST to user@host}"
REMOTE_BIN="${EKYA_SSH_BIN:-ekya_grid}"
REMOTE_RESULTS="${EKYA_SSH_RESULTS_DIR:-${EKYA_RESULTS_DIR:?supervisor did not set EKYA_RESULTS_DIR}}"

# Forward every supervisor-owned knob that is set. Values are the
# supervisor's own (digits, i/N, 0/1), so plain quoting is safe.
ENV_ARGS="EKYA_RESULTS_DIR='$REMOTE_RESULTS'"
for var in EKYA_SHARD EKYA_RESUME EKYA_SEED EKYA_WINDOWS EKYA_STREAMS \
           EKYA_QUICK EKYA_WORKERS EKYA_ORCH_CRASH_AFTER EKYA_TRACE; do
  eval "val=\${$var:-}"
  if [ -n "$val" ]; then
    ENV_ARGS="$ENV_ARGS $var='$val'"
  fi
done

# $* is the worker argv the supervisor passed: `worker --bin <BIN>`.
exec ssh "$EKYA_SSH_HOST" "env $ENV_ARGS '$REMOTE_BIN' $*"
