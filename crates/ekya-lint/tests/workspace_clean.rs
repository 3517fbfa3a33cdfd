//! The workspace is lint-clean — the same invariant CI enforces by
//! running the `ekya_lint` bin, kept as a test so a plain `cargo test`
//! catches a fresh determinism hazard without going through `ci.sh`.

#[test]
fn workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let violations = ekya_lint::lint_workspace(&root, &ekya_lint::Config::default());
    assert!(
        violations.is_empty(),
        "the workspace has determinism-lint violations:\n{}",
        violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
    );
}

/// Every allowlisted path names a file that exists, so deleting a
/// sanctioned module takes its exemption with it instead of leaving a
/// stale entry a later file of the same name would silently inherit.
#[test]
fn allowlisted_paths_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (rule, path) in ekya_lint::Config::default().path_allow {
        assert!(root.join(path).is_file(), "allowlist entry ({rule}, {path}) names no file");
    }
}
