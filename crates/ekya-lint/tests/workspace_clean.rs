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

/// Every vendored shim has a user: each `vendor/<name>` appears in the
/// `[dependencies]` or `[dev-dependencies]` of some *other* member
/// manifest. The root `[workspace.dependencies]` table does not count —
/// it declares a shim, it does not use one — so a shim whose last user
/// is deleted fails here instead of lingering in the build.
#[test]
fn every_vendored_shim_has_a_dependent() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let subdirs = |dir: &str| -> Vec<std::path::PathBuf> {
        let mut dirs: Vec<_> = std::fs::read_dir(root.join(dir))
            .expect("member directory readable")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        dirs
    };
    let mut manifests = vec![root.join("Cargo.toml")];
    manifests.extend(
        subdirs("crates").into_iter().chain(subdirs("vendor")).map(|d| d.join("Cargo.toml")),
    );
    let deps: Vec<_> = manifests
        .iter()
        .map(|m| (m, dependency_names(&std::fs::read_to_string(m).expect("manifest readable"))))
        .collect();
    for shim in subdirs("vendor") {
        let name = shim.file_name().unwrap().to_str().unwrap();
        let own = shim.join("Cargo.toml");
        assert!(
            deps.iter().any(|(m, names)| **m != own && names.iter().any(|n| n == name)),
            "vendor/{name} has no dependent: no other member manifest lists it under \
             [dependencies] or [dev-dependencies]"
        );
    }
}

/// The keys of a manifest's `[dependencies]` and `[dev-dependencies]`
/// tables (`name = …` and `name.workspace = true` alike).
fn dependency_names(manifest: &str) -> Vec<String> {
    let mut in_deps = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]" || line == "[dev-dependencies]";
        } else if in_deps && !line.is_empty() && !line.starts_with('#') {
            names.push(line.split(['=', '.']).next().unwrap_or_default().trim().to_string());
        }
    }
    names
}
