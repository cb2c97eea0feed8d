//! The tree has no public item that nothing names.
//!
//! Every `pub` / `pub(crate)` `fn|struct|enum|trait|const|type` declared
//! in `crates/*/src` before the file's `#[cfg(test)]` must be named
//! (word-boundary match) somewhere that is not its own file's unit tests:
//! in any other `.rs` under `crates/ src/ tests/ examples/ benchmark/src`
//! — a `pub use` re-export does not count — or in the non-test part of its
//! own file beyond the declaration itself. An item only its own unit
//! tests call serves no workload, no bench, no example and no other
//! test; it is deleted, not kept "for later".
//!
//! The scan is textual (std only), so it can only err towards leniency:
//! a common name (`new`, `len`) is always "referenced". That is fine —
//! it is a floor under the public surface, not a dead-code proof.
//!
//! The blind spot that follows: names are matched, not paths, so a dead
//! method passes while any other type has a live method of the same name.
//! `Soc::reset_stats` and the four methods only it called (memory system,
//! DRAM channel, display, CPU core) passed this scan, uncalled, because
//! `reset_stats` is also live on `Gpu`, `SimtCore`, `L2`, `Cache` and
//! `GfxCtx`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Items the textual scan flags that are nevertheless reached. At most
/// 10, each with the reason a grep cannot see.
const ALLOWED: &[(&str, &str)] = &[(
    "write_bytes",
    "MemImage's byte-granular writer: the image's own wrap/clip/diff_region \
     unit tests are written against it, and ISSUE 24 scoped it out",
)];

const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "type"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                rust_files(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
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

/// The name a line declares, if it opens with `pub` / `pub(crate)` and
/// one of [`ITEM_KINDS`] (`pub const fn f`, `pub unsafe fn f` included).
fn declared_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub")?;
    let rest = rest.strip_prefix("(crate)").unwrap_or(rest);
    if !rest.starts_with(' ') {
        return None;
    }
    let mut toks = words(rest);
    let mut kind = toks.next()?;
    // `const fn` / `unsafe fn`: the qualifier is not the item kind.
    let mut name = toks.next()?;
    if matches!(kind, "const" | "unsafe") && name == "fn" {
        kind = "fn";
        name = toks.next()?;
    }
    ITEM_KINDS.contains(&kind).then_some(name)
}

/// The lines of `text` that can name an item: comments are cut (prose is
/// not a caller), `pub use …;` statements (single- or multi-line) dropped,
/// and — for a file's view of itself, `own` — `impl` headers too, since a
/// type's own `impl` block does not use it.
fn naming_lines(text: &str, own: bool) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_use = false;
    for line in text.lines() {
        let line = line.split("//").next().unwrap_or("");
        let start = line.trim_start();
        if !in_use && start.starts_with("pub use ") {
            in_use = true;
        }
        if in_use {
            in_use = !line.contains(';');
        } else if !(own && start.starts_with("impl")) {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn count_words(text: &str) -> BTreeMap<&str, usize> {
    let mut m = BTreeMap::new();
    for w in words(text) {
        *m.entry(w).or_insert(0) += 1;
    }
    m
}

#[test]
fn no_public_item_is_named_only_by_its_own_unit_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();

    // Per file: the text that counts as a reference from elsewhere (all of
    // it but re-exports) and the text that counts from inside (the part
    // before `#[cfg(test)]`).
    let texts: Vec<(PathBuf, String, String)> = files
        .into_iter()
        .map(|p| {
            let raw = fs::read_to_string(&p).expect("readable source file");
            let prod = raw.find("#[cfg(test)]").map_or(&raw[..], |at| &raw[..at]);
            (p, naming_lines(&raw, false), naming_lines(prod, true))
        })
        .collect();

    let mut everywhere: BTreeMap<&str, usize> = BTreeMap::new();
    let per_file: Vec<BTreeMap<&str, usize>> = texts
        .iter()
        .map(|(_, whole, _)| {
            let m = count_words(whole);
            for (w, n) in &m {
                *everywhere.entry(w).or_insert(0) += n;
            }
            m
        })
        .collect();

    let mut offenders = Vec::new();
    for (i, (path, _, prod)) in texts.iter().enumerate() {
        let rel = path.strip_prefix(root).expect("file under the repo root");
        let mut comps = rel.components();
        let in_crate_src = comps.next().is_some_and(|c| c.as_os_str() == "crates")
            && comps.nth(1).is_some_and(|c| c.as_os_str() == "src");
        if !in_crate_src {
            continue;
        }
        let mut declared: BTreeMap<&str, usize> = BTreeMap::new();
        for line in prod.lines() {
            if let Some(name) = declared_name(line) {
                *declared.entry(name).or_insert(0) += 1;
            }
        }
        let own_prod = count_words(prod);
        for (name, decls) in declared {
            let elsewhere = everywhere.get(name).copied().unwrap_or(0)
                - per_file[i].get(name).copied().unwrap_or(0);
            let own = own_prod.get(name).copied().unwrap_or(0) - decls;
            if elsewhere + own == 0 && !ALLOWED.iter().any(|(n, _)| *n == name) {
                offenders.push(format!("{}: {name}", rel.display()));
            }
        }
    }

    assert!(
        ALLOWED.len() <= 10,
        "the allow-list is a list of exceptions, not a second surface"
    );
    assert!(
        offenders.is_empty(),
        "{} public item(s) are named by nothing but their own file's unit tests:\n  {}",
        offenders.len(),
        offenders.join("\n  ")
    );
}
