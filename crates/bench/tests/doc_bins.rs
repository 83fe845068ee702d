//! Every `--bin <name>` / `--bench <name>` the docs tell a reader to run must
//! name a target that exists in the workspace (targets are auto-discovered:
//! `crates/*/src/bin/<name>.rs` or `<name>/main.rs`, `crates/*/benches/<name>.rs`),
//! and every source file, item or enum variant the docs cite must still exist.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

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

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Whether `src` defines an item called `name` (`fn`, `struct`, `enum`,
/// `const`, `static`, `type`, `trait` or `mod`).
fn defines(src: &str, name: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    ["fn ", "struct ", "enum ", "const ", "static ", "type ", "trait ", "mod "].iter().any(|kw| {
        let def = format!("{kw}{name}");
        src.match_indices(&def).any(|(i, _)| {
            let before = src[..i].chars().next_back().is_none_or(|c| !is_ident(c));
            let after = src[i + def.len()..].chars().next().is_none_or(|c| !is_ident(c));
            before && after
        })
    })
}

/// Every `crates/….rs` path the docs cite exists, and every `file.rs::name`
/// citation (the file given by any path suffix, e.g. `graph.rs` or
/// `tensor/src/graph.rs`) names an item that file still defines.
#[test]
fn docs_cite_only_sources_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut sources = Vec::new();
    rust_files(&root.join("crates"), &mut sources);
    let is_path_char = |c: char| c.is_alphanumeric() || "_-./".contains(c);
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut stale = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (i, _) in text.match_indices(".rs") {
            let rest = &text[i + 3..];
            if rest.starts_with(is_ident) {
                continue;
            }
            let start = text[..i]
                .char_indices()
                .rev()
                .take_while(|&(_, c)| is_path_char(c))
                .last()
                .map_or(i, |(p, _)| p);
            let cited = &text[start..i + 3];
            let files: Vec<&PathBuf> = sources
                .iter()
                .filter(|f| f.ends_with(cited) && !cited.starts_with(".rs"))
                .collect();
            if cited.starts_with("crates/") && !root.join(cited).is_file() {
                stale.push(format!("{doc}: no file {cited}"));
            } else if let Some(item) = rest.strip_prefix("::") {
                let name: String = item.chars().take_while(|&c| is_ident(c)).collect();
                let found = files.iter().any(|f| {
                    defines(&std::fs::read_to_string(f).expect("source is readable"), &name)
                });
                if !found {
                    stale.push(format!("{doc}: {cited}::{name} is not defined there"));
                }
            }
        }
    }
    assert!(stale.is_empty(), "docs cite sources that no longer exist: {stale:#?}");
}

/// Variant names of every `enum` defined in `sources`, keyed by enum name
/// (enums that share a name pool their variants). A variant is an
/// identifier directly inside the enum's braces that follows the opening
/// brace, a comma or an attribute's closing bracket.
fn enum_variants(sources: &[PathBuf]) -> HashMap<String, HashSet<String>> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut enums: HashMap<String, HashSet<String>> = HashMap::new();
    for file in sources {
        let src = std::fs::read_to_string(file).expect("source is readable");
        for (i, _) in src.match_indices("enum ") {
            let line_start = src[..i].rfind('\n').map_or(0, |p| p + 1);
            if !["", "pub", "pub(crate)", "pub(super)"].contains(&src[line_start..i].trim()) {
                continue;
            }
            let name: String = src[i + 5..].chars().take_while(|&c| is_ident(c)).collect();
            let Some(open) = src[i..].find('{') else { continue };
            let variants = enums.entry(name).or_default();
            let mut body = src[i + open + 1..].chars().peekable();
            let (mut depth, mut prev) = (1usize, '{');
            while let Some(c) = body.next() {
                match c {
                    '/' if body.peek() == Some(&'/') => {
                        body.by_ref().find(|&c| c == '\n');
                    }
                    '{' | '(' | '[' => (depth, prev) = (depth + 1, c),
                    '}' | ')' | ']' if depth == 1 => break,
                    '}' | ')' | ']' => (depth, prev) = (depth - 1, c),
                    c if c.is_whitespace() => {}
                    c if is_ident(c) => {
                        let mut ident = String::from(c);
                        while let Some(&n) = body.peek().filter(|&&n| is_ident(n)) {
                            ident.push(n);
                            body.next();
                        }
                        if depth == 1 && matches!(prev, '{' | ',' | ']') {
                            variants.insert(ident);
                        }
                        prev = 'a';
                    }
                    c => prev = c,
                }
            }
        }
    }
    enums
}

/// Every backticked `Enum::Variant` the docs cite, where `Enum` is an enum
/// the workspace defines, names a variant that enum still has.
#[test]
fn docs_cite_only_enum_variants_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut sources = Vec::new();
    rust_files(&root.join("crates"), &mut sources);
    let enums = enum_variants(&sources);
    assert!(
        enums.get("QuantLevel").is_some_and(|v| v.contains("I8")),
        "the enum scan no longer finds `QuantLevel::I8`"
    );
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut stale = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for line in text.lines() {
            for code in line.split('`').skip(1).step_by(2) {
                for (i, _) in code.match_indices("::") {
                    let head = &code[..i];
                    let start = head.rfind(|c: char| !is_ident(c)).map_or(0, |p| p + 1);
                    let Some(variants) = enums.get(&head[start..]) else { continue };
                    let name: String = code[i + 2..].chars().take_while(|&c| is_ident(c)).collect();
                    if name.starts_with(char::is_uppercase) && !variants.contains(&name) {
                        stale.push(format!("{doc}: {}::{name}", &head[start..]));
                    }
                }
            }
        }
    }
    assert!(stale.is_empty(), "docs cite enum variants that no longer exist: {stale:#?}");
}

/// Every exhibit `repro all` writes (`Exhibit { name: … }` in
/// `crates/bench/src/bin/repro.rs`) has its tracked `results/<name>.txt`,
/// and that file opens with the exhibit's title — the literal text before
/// any placeholder of the first `println!` in the exhibit's function — not
/// with a line some other program wrote, such as a shell's stderr.
#[test]
fn exhibit_results_open_with_their_titles() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let src = std::fs::read_to_string(root.join("crates/bench/src/bin/repro.rs"))
        .expect("repro.rs is readable");
    let names: Vec<&str> = src
        .split("Exhibit { name: \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("split yields one piece"))
        .collect();
    assert!(names.len() >= 10, "found only {} exhibits in repro.rs", names.len());
    let mut wrong = Vec::new();
    for name in names {
        let body = src
            .split(&format!("\nfn {name}("))
            .nth(1)
            .unwrap_or_else(|| panic!("repro.rs has no fn {name}"));
        let literal =
            body.split("println!(\"").nth(1).unwrap_or_else(|| panic!("fn {name} prints nothing"));
        let title = &literal[..literal.find(['{', '\\', '"']).unwrap_or(literal.len())];
        assert!(title.contains(" — "), "fn {name}: first println! is not a title: {title:?}");
        match std::fs::read_to_string(root.join(format!("results/{name}.txt"))) {
            Err(e) => wrong.push(format!("results/{name}.txt: {e}")),
            Ok(text) => {
                let first = text.lines().next().unwrap_or("");
                if !first.starts_with(title) {
                    wrong.push(format!("results/{name}.txt opens with {first:?}, not {title:?}"));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "exhibit outputs that do not open with their titles: {wrong:#?}");
}
