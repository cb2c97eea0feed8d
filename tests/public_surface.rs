//! `pub` means named outside the crate.
//!
//! Every `pub` `fn|struct|enum|trait|const|type` declared in
//! `crates/<c>/src` before the file's `#[cfg(test)]` must be named (word
//! match) in some `.rs` file outside `crates/<c>/src`: its own crate's
//! `tests/`, another crate, `src/`, `tests/`, `examples/` or
//! `benchmark/src`. Comments and `pub use` re-exports do not count. An item
//! nothing outside its crate names is `pub(crate)` or private instead.
//!
//! One exception: a `struct|enum|trait|type` named in its crate's public
//! signatures (a `pub` line, a signature that line opens, or an item line
//! of a `pub enum`, a `pub trait` or a trait `impl`) stays `pub`, since
//! rustc's `private_interfaces` lint refuses it narrower. Outside code
//! reaches such a type without naming it: `gpu.stats().cycles`.
//!
//! `pub(crate)` and private items are the compiler's job, not this scan's:
//! rustc's `dead_code` lint, which `scripts/ci.sh` makes fatal through
//! `clippy -D warnings`, resolves their uses by path, and it reports an
//! item that only unit tests call, because `cargo clippy --all-targets`
//! also checks the crate built without `cfg(test)`. A `pub` item switches
//! that lint off, which is why the visibility has to be earned here.
//!
//! The scan is textual (std only), so its blind spot is a name collision:
//! a `pub` item passes while anything outside its crate uses the same name
//! for another item (`new`, `len`, `publish`, `reset_stats`). To re-check
//! the cross-crate surface by path, on a scratch copy of the tree: put
//! `#[deprecated]` on every `pub` / `pub(crate)` function in `crates/*/src`
//! (conformance excluded), run `cargo check --workspace --all-targets` and
//! `cargo check --manifest-path benchmark/Cargo.toml --all-targets`, and
//! group the deprecation warnings by the function they name. Each warning
//! is one use site, resolved by the compiler. A `pub` function with no
//! warning outside its own `crates/<c>/src` should be narrowed; one with no
//! warning at all, or only warnings from unit tests, should be deleted.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "type"];

/// Every `.rs` file under `dir`, as `(path relative to root, text)`.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                rust_files(root, &p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs") {
            let rel = p.strip_prefix(root).expect("file under the repo root");
            let text = fs::read_to_string(&p).expect("readable source file");
            out.push((rel.to_string_lossy().replace('\\', "/"), text));
        }
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Identifier tokens of `text`, in order.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.as_bytes()
        .split(|b| !is_ident(*b))
        .filter(|w| !w.is_empty())
        .map(|w| std::str::from_utf8(w).expect("ASCII identifier bytes"))
}

/// The kind and name a line declares, if it opens with `pub ` (not
/// `pub(crate)`) and one of [`ITEM_KINDS`] (`pub const fn f`,
/// `pub unsafe fn f` included).
fn declared_pub_item(line: &str) -> Option<(&str, &str)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let mut toks = words(rest);
    let mut kind = toks.next()?;
    // `const fn` / `unsafe fn`: the qualifier is not the item kind.
    let mut name = toks.next()?;
    if matches!(kind, "const" | "unsafe") && name == "fn" {
        kind = "fn";
        name = toks.next()?;
    }
    ITEM_KINDS.contains(&kind).then_some((kind, name))
}

/// The text of `text` that can name an item: comments are cut (prose is
/// not a caller) and `pub use …;` statements (single- or multi-line)
/// dropped (a re-export is not a use).
fn naming_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_use = false;
    for line in text.lines() {
        let line = line.split("//").next().unwrap_or("");
        if !in_use && line.trim_start().starts_with("pub use ") {
            in_use = true;
        }
        if in_use {
            in_use = !line.contains(';');
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The lines of `text` (already through [`naming_text`]) that make up
/// public signatures: `pub` lines, the item lines of `pub enum`,
/// `pub trait` and trait `impl` blocks, and the rest of any signature one
/// of those lines opens. Blocks are found by indentation, which
/// `cargo fmt --check` keeps canonical.
fn interface_text(text: &str) -> String {
    let mut out = String::new();
    let mut blocks: Vec<usize> = Vec::new();
    let mut in_signature = false;
    for line in text.lines() {
        let t = line.trim_start();
        if t.is_empty() {
            continue;
        }
        let indent = line.len() - t.len();
        while blocks.last().is_some_and(|&b| indent <= b) {
            blocks.pop();
        }
        let item_line = blocks.last().is_some_and(|&b| indent == b + 4);
        if in_signature || t.starts_with("pub ") || item_line {
            out.push_str(line);
            out.push('\n');
            let ends = t.contains('{') || t.ends_with(';');
            in_signature = !ends && (in_signature || words(t).any(|w| w == "fn"));
        }
        let opens = t.starts_with("pub enum ")
            || t.starts_with("pub trait ")
            || (t.starts_with("impl") && words(t).any(|w| w == "for"));
        if opens && t.ends_with('{') {
            blocks.push(indent);
        }
    }
    out
}

/// `crates/<c>/src` for a file in a crate's sources, `None` otherwise.
fn crate_src(path: &str) -> Option<&str> {
    let mut parts = path.splitn(4, '/');
    let (top, krate, src) = (parts.next()?, parts.next()?, parts.next()?);
    (top == "crates" && src == "src" && parts.next().is_some())
        .then(|| &path[..top.len() + krate.len() + src.len() + 2])
}

/// The part of a crate source file that declares its surface: everything
/// before its `#[cfg(test)]`.
fn production(raw: &str) -> &str {
    raw.find("#[cfg(test)]").map_or(raw, |at| &raw[..at])
}

/// The `pub` items of `files` (paths relative to the repository root) that
/// nothing outside their own `crates/<c>/src` names, as `path: name`.
fn unearned_pub_items(files: &[(String, String)]) -> Vec<String> {
    // Who names what: for each word, the source trees it appears in
    // (`crates/<c>/src`, or "" for everything else) ...
    let mut named_in: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let texts: Vec<String> = files.iter().map(|(_, t)| naming_text(t)).collect();
    for ((path, _), text) in files.iter().zip(&texts) {
        let tree = crate_src(path).unwrap_or("");
        for w in words(text) {
            named_in.entry(w).or_default().insert(tree);
        }
    }
    // ... and, per crate, how often each word occurs in public signatures.
    let mut interface: BTreeMap<&str, BTreeMap<String, usize>> = BTreeMap::new();
    for (path, raw) in files {
        if let Some(tree) = crate_src(path) {
            let sigs = interface_text(&naming_text(production(raw)));
            for w in words(&sigs) {
                *interface
                    .entry(tree)
                    .or_default()
                    .entry(w.to_string())
                    .or_default() += 1;
            }
        }
    }
    let mut out = Vec::new();
    for (path, raw) in files {
        let Some(tree) = crate_src(path) else {
            continue;
        };
        for line in naming_text(production(raw)).lines() {
            let Some((kind, name)) = declared_pub_item(line) else {
                continue;
            };
            let outside = named_in
                .get(name)
                .is_some_and(|trees| trees.iter().any(|t| *t != tree));
            // Its own declaration is one of the crate's `pub` lines.
            let in_signatures = matches!(kind, "struct" | "enum" | "trait" | "type")
                && interface.get(tree).and_then(|m| m.get(name)) > Some(&1);
            if !outside && !in_signatures {
                out.push(format!("{path}: {name}"));
            }
        }
    }
    out
}

#[test]
fn every_pub_item_is_named_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        rust_files(root, &root.join(dir), &mut files);
    }
    assert!(
        files.iter().filter(|(p, _)| crate_src(p).is_some()).count() > 50,
        "the scan found too few crate sources to mean anything"
    );
    let offenders = unearned_pub_items(&files);
    assert!(
        offenders.is_empty(),
        "{} `pub` item(s) are named by nothing outside their crate's sources \
         (make them `pub(crate)` or private):\n  {}",
        offenders.len(),
        offenders.join("\n  ")
    );
}

/// The scan over a synthetic tree: it must flag a `pub fn` named only in
/// its own crate, and one named outside only in a comment or a re-export;
/// it must pass one named from its crate's `tests/` and skip `pub(crate)`.
/// A `pub struct` that only its crate's public signatures name passes; one
/// only a function body names does not.
#[test]
fn scan_flags_what_only_its_own_crate_names() {
    let file = |p: &str, t: &str| (p.to_string(), t.to_string());
    let tree = [
        file(
            "crates/a/src/lib.rs",
            "pub mod m;\n\
             pub fn own_only() {}\n\
             pub fn in_comment() {}\n\
             pub fn re_exported() {}\n\
             pub fn from_tests() {}\n\
             pub(crate) fn crate_vis() {}\n\
             fn private() { own_only(); crate_vis(); }\n",
        ),
        file(
            "crates/a/src/m.rs",
            "pub struct Shown;\n\
             pub struct Hidden;\n\
             pub fn show() -> Shown {\n\
             \x20   let _ = Hidden;\n\
             \x20   crate::own_only();\n\
             \x20   Shown\n\
             }\n",
        ),
        file(
            "crates/a/tests/t.rs",
            "fn t() { a::from_tests(); a::m::show(); }\n",
        ),
        file(
            "crates/b/src/lib.rs",
            "// a::in_comment() is prose\n\
             pub use a::re_exported;\n\
             fn f() { let _ = a::m; }\n",
        ),
    ];
    let got = unearned_pub_items(&tree);
    assert_eq!(
        got,
        [
            "crates/a/src/lib.rs: own_only",
            "crates/a/src/lib.rs: in_comment",
            "crates/a/src/lib.rs: re_exported",
            "crates/a/src/m.rs: Hidden",
        ]
    );
}
