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
    let mut manifests = vec![root.join("Cargo.toml")];
    manifests.extend(
        subdirs(&root, "crates")
            .into_iter()
            .chain(subdirs(&root, "vendor"))
            .map(|d| d.join("Cargo.toml")),
    );
    let deps: Vec<_> = manifests
        .iter()
        .map(|m| {
            let manifest = std::fs::read_to_string(m).expect("manifest readable");
            let names = [DEPS, DEV_DEPS].map(|table| table_keys(&manifest, table)).concat();
            (m, names)
        })
        .collect();
    for shim in subdirs(&root, "vendor") {
        let name = shim.file_name().unwrap().to_str().unwrap();
        let own = shim.join("Cargo.toml");
        assert!(
            deps.iter().any(|(m, names)| **m != own && names.iter().any(|n| n == name)),
            "vendor/{name} has no dependent: no other member manifest lists it under \
             [dependencies] or [dev-dependencies]"
        );
    }
}

/// Every declared dependency is used: each `[dependencies]` key of the
/// root package and of every `crates/*` member is named, with `-` read as
/// `_`, by code in that package's `src/`, and each `[dev-dependencies]`
/// key by code in its `src/`, `tests/` or `examples/`. Comments and
/// strings do not count, so a manifest line whose last use is deleted
/// fails here instead of lingering in the build graph.
#[test]
fn every_declared_dependency_is_used() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut packages = vec![root.clone()];
    packages.extend(subdirs(&root, "crates"));
    let mut unused = Vec::new();
    for package in &packages {
        let manifest =
            std::fs::read_to_string(package.join("Cargo.toml")).expect("manifest readable");
        for (table, dirs) in [(DEPS, &["src"][..]), (DEV_DEPS, &["src", "tests", "examples"])] {
            let mut files = Vec::new();
            for dir in dirs {
                collect_rs(&package.join(dir), &mut files);
            }
            // A nested package (an example with its own manifest) is not
            // this package's code.
            files.retain(|f| {
                f.ancestors()
                    .skip(1)
                    .take_while(|a| a != package)
                    .all(|a| !a.join("Cargo.toml").is_file())
            });
            let named: std::collections::BTreeSet<String> = files
                .iter()
                .flat_map(|f| {
                    let src = std::fs::read_to_string(f).expect("source readable");
                    ekya_lint::lexer::scan(&src).tokens.into_iter().map(|t| t.text)
                })
                .collect();
            for key in table_keys(&manifest, table) {
                if !named.contains(&key.replace('-', "_")) {
                    let at = package.join("Cargo.toml");
                    unused.push(format!(
                        "{}: {table} {key}",
                        at.strip_prefix(&root).unwrap().display()
                    ));
                }
            }
        }
    }
    assert!(
        unused.is_empty(),
        "declared dependencies that no code names — delete the manifest lines:\n{}",
        unused.join("\n")
    );
}

const DEPS: &str = "[dependencies]";
const DEV_DEPS: &str = "[dev-dependencies]";

/// The keys of one dependency table of a manifest (`name = …` and
/// `name.workspace = true` alike).
fn table_keys(manifest: &str, table: &str) -> Vec<String> {
    let mut inside = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == table;
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            names.push(line.split(['=', '.']).next().unwrap_or_default().trim().to_string());
        }
    }
    names
}

/// The subdirectories of `root/dir`, sorted.
fn subdirs(root: &std::path::Path, dir: &str) -> Vec<std::path::PathBuf> {
    let mut dirs: Vec<_> = std::fs::read_dir(root.join(dir))
        .expect("member directory readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// `pub` items that only tests name, each kept on purpose.
const TEST_SEAMS: [(&str, &str); 3] = [
    ("bare", "the empty lint `Config` the rule fixtures run under"),
    ("class_distribution", "the independent oracle of ekya-video's dataset test"),
    ("class_len", "lets continual-memory tests inspect per-class occupancy"),
];

/// Every `pub fn|struct|enum|trait|const|type` under `crates/*/src` is
/// named by code other than its own definition: the non-test part of any
/// crate source, or the facade's `src/`, or `examples/`. Unit-test
/// modules, `tests/` directories, `pub use` re-exports and `impl` headers
/// do not count, so a helper whose last caller is deleted fails here
/// instead of lingering as dead API.
#[test]
fn every_pub_item_has_a_caller() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples"] {
        collect_rs(&root.join(dir), &mut files);
    }
    files.sort();
    let crate_src = root.join("crates");
    let mut defs = Vec::new(); // (name, file, line)
    let mut uses = std::collections::BTreeSet::new();
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/");
        if rel.starts_with("crates/") && rel.split('/').nth(2) != Some("src") {
            continue; // crate `tests/` directories
        }
        let scan = ekya_lint::lexer::scan(&std::fs::read_to_string(file).expect("source readable"));
        let end = scan.tokens.iter().take_while(|t| !scan.in_test_code(t.line)).count();
        let toks: Vec<&str> = scan.tokens[..end].iter().map(|t| t.text.as_str()).collect();
        let mut i = 0;
        while i < toks.len() {
            match toks[i] {
                // `pub use` lines and `impl … {` headers name nothing.
                "pub" if toks.get(i + 1) == Some(&"use") => {
                    i += toks[i..].iter().position(|t| *t == ";").unwrap_or(toks.len() - i);
                }
                "impl" => i += toks[i..].iter().position(|t| *t == "{").unwrap_or(toks.len() - i),
                "pub" if file.starts_with(&crate_src) => {
                    if let Some(&("fn" | "struct" | "enum" | "trait" | "const" | "type")) =
                        toks.get(i + 1)
                    {
                        defs.push((toks[i + 2].to_string(), rel.clone(), scan.tokens[i].line));
                        i += 3; // the definition does not name itself
                        continue;
                    }
                }
                t => {
                    uses.insert(t.to_string());
                }
            }
            i += 1;
        }
    }
    let orphans: Vec<String> = defs
        .iter()
        .filter(|(name, ..)| !uses.contains(name) && !TEST_SEAMS.iter().any(|(s, _)| s == name))
        .map(|(name, file, line)| format!("{file}:{line}: `{name}`"))
        .collect();
    assert!(
        orphans.is_empty(),
        "pub items that no non-test code names — delete them, or list a test seam in \
         TEST_SEAMS with its reason:\n{}",
        orphans.join("\n")
    );
    for (seam, _) in TEST_SEAMS {
        assert!(
            defs.iter().any(|(name, ..)| name == seam) && !uses.contains(seam),
            "TEST_SEAMS entry `{seam}` is stale: no such item, or non-test code now names it"
        );
    }
}

/// Recursively collects `.rs` files under `dir`, skipping build
/// directories (no-op if absent).
fn collect_rs(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for path in entries.map(|e| e.expect("directory entry").path()) {
        if path.is_dir() && !path.ends_with("target") {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
