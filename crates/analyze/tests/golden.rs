//! Golden test: the violation-seeded fixtures must produce exactly the
//! findings pinned in `fixtures/expected.txt`. This proves the gate can
//! actually fail — a rule silently going blind shows up here as a diff.

use std::path::{Path, PathBuf};

use ambipla_analyze::{analyze_paths, report};

fn workspace_root() -> PathBuf {
    // crates/analyze → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

#[test]
fn fixtures_produce_exactly_the_expected_findings() {
    let root = workspace_root();
    let dir = root.join("crates/analyze/fixtures");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rs"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 6, "expected the six seeded fixture files");

    let findings = analyze_paths(&root, &paths).expect("fixtures readable");
    assert!(!findings.is_empty(), "fixtures must trip the analyzer");

    let rendered = report::render(&findings);
    let expected =
        std::fs::read_to_string(dir.join("expected.txt")).expect("fixtures/expected.txt");
    assert_eq!(
        rendered, expected,
        "fixture findings diverged from fixtures/expected.txt; \
         if the rule change is intentional, regenerate it with \
         `cargo run -p ambipla-analyze --release -- --fixtures > crates/analyze/fixtures/expected.txt`"
    );

    // Every rule must be represented — a rule that stops firing on its
    // fixture has gone blind even if the diff above were regenerated.
    for rule in [
        "panic_freedom",
        "atomic_ordering",
        "lock_order",
        "unsafe_safety",
        "blocking_under_lock",
        "allow_syntax",
    ] {
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "rule {rule} produced no fixture finding"
        );
    }
}
