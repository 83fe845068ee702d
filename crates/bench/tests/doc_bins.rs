//! Every `--bin <name>` / `--bench <name>` the docs tell a reader to run must
//! name a target that exists in the workspace (targets are auto-discovered:
//! `crates/*/src/bin/<name>.rs` or `<name>/main.rs`, `crates/*/benches/<name>.rs`).

use std::path::Path;

const DOCS: [&str; 4] =
    ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"];

#[test]
fn docs_name_only_targets_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("crates/ entry").path())
        .collect();
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let words: Vec<&str> = text.split_whitespace().collect();
        for pair in words.windows(2) {
            let dir = match pair[0].trim_start_matches('`') {
                "--bin" => "src/bin",
                "--bench" => "benches",
                _ => continue,
            };
            let is_name_char = |c: char| c.is_alphanumeric() || c == '_' || c == '-';
            let name = pair[1].trim_matches(|c| !is_name_char(c));
            let found = crates.iter().any(|c| {
                c.join(dir).join(format!("{name}.rs")).exists()
                    || c.join(dir).join(name).join("main.rs").exists()
            });
            if !found {
                missing.push(format!("{doc}: {} {name}", pair[0]));
            }
        }
    }
    assert!(missing.is_empty(), "docs name targets the workspace does not have: {missing:#?}");
}
