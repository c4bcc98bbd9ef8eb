//! The driver: file discovery, the waiver mechanism, and the
//! public entry points the binary and the tests share.
//!
//! # Waivers
//!
//! A diagnostic is suppressed by an inline comment of the form
//!
//! ```text
//! // seal-lint: allow(rule-name) — why this exception is sound
//! ```
//!
//! either trailing on the offending line or standalone on the line
//! above it. Several rules can be named (`allow(a, b)`). The
//! justification is **mandatory** — the whole point of the mechanism
//! is that every exception is written down next to the code it
//! excuses — and the `waiver-discipline` rule closes the loop: a
//! waiver naming an unknown rule, missing its justification, or
//! suppressing nothing is itself an error (so stale waivers cannot
//! rot in place). Waiver-discipline diagnostics cannot be waived.

use crate::lexer::{lex, Comment};
use crate::rules::{check_file, Diag, RULES};
use std::io;
use std::path::{Path, PathBuf};

/// One parsed waiver comment.
#[derive(Debug)]
struct Waiver {
    line: u32,
    rules: Vec<String>,
    justified: bool,
    /// Rule names not in [`RULES`].
    unknown: Vec<String>,
    used: bool,
}

/// Extracts waivers from a file's comments. Returns the waivers plus
/// immediate syntax diagnostics (malformed `allow(...)`).
fn parse_waivers(path: &str, comments: &[Comment]) -> (Vec<Waiver>, Vec<Diag>) {
    let mut waivers = Vec::new();
    let mut diags = Vec::new();
    for c in comments {
        // Only a comment that *is* a waiver counts — prose that merely
        // mentions the syntax (docs, examples) must not parse as one.
        let Some(rest) = c.text.trim_start().strip_prefix("seal-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(inner) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
            diags.push(Diag {
                file: path.to_string(),
                line: c.line,
                rule: "waiver-discipline",
                msg: "malformed waiver: expected `seal-lint: allow(<rule>) — <justification>`"
                    .to_string(),
            });
            continue;
        };
        let (names, after) = inner;
        let rules: Vec<String> = names
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let unknown: Vec<String> = rules
            .iter()
            .filter(|r| !RULES.contains(&r.as_str()))
            .cloned()
            .collect();
        let justification = after
            .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
            .trim();
        waivers.push(Waiver {
            line: c.line,
            rules,
            justified: !justification.is_empty(),
            unknown,
            used: false,
        });
    }
    (waivers, diags)
}

/// Lints one file's source: runs every rule, applies waivers, then
/// audits the waivers themselves.
pub fn lint_source(path: &str, src: &str) -> Vec<Diag> {
    let lexed = lex(src);
    let raw = check_file(path, &lexed);
    let (mut waivers, mut out) = parse_waivers(path, &lexed.comments);
    for d in raw {
        let waived = waivers.iter_mut().any(|w| {
            let covers = d.line == w.line || d.line == w.line + 1;
            let names_rule = w.rules.iter().any(|r| r == d.rule);
            if covers && names_rule && w.unknown.is_empty() && w.justified {
                w.used = true;
                true
            } else {
                false
            }
        });
        if !waived {
            out.push(d);
        }
    }
    for w in &waivers {
        for u in &w.unknown {
            out.push(Diag {
                file: path.to_string(),
                line: w.line,
                rule: "waiver-discipline",
                msg: format!(
                    "waiver names unknown rule `{u}` (known: {})",
                    RULES.join(", ")
                ),
            });
        }
        if !w.justified {
            out.push(Diag {
                file: path.to_string(),
                line: w.line,
                rule: "waiver-discipline",
                msg: "waiver has no justification — write down why the exception is sound"
                    .to_string(),
            });
        }
        if w.justified && w.unknown.is_empty() && !w.used {
            out.push(Diag {
                file: path.to_string(),
                line: w.line,
                rule: "waiver-discipline",
                msg: format!(
                    "unused waiver for `{}` — it suppresses nothing on this or the next \
                     line; remove it",
                    w.rules.join(", ")
                ),
            });
        }
    }
    out.sort_by_key(|d| d.line);
    out
}

/// Lints a list of files from disk.
pub fn lint_paths(paths: &[PathBuf]) -> io::Result<Vec<Diag>> {
    let mut out = Vec::new();
    for p in paths {
        let src = std::fs::read_to_string(p)?;
        out.extend(lint_source(&p.to_string_lossy(), &src));
    }
    Ok(out)
}

/// Collects the workspace's lintable files: `crates/*/src/**/*.rs`
/// plus the facade root `src/**/*.rs`. Shims are deliberately out of
/// scope (they are stand-ins for external crates, not this codebase),
/// as are `tests/` and `examples/` — the invariants guard the
/// shipped library and serving surfaces.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for m in members {
            let src = m.join("src");
            if src.is_dir() {
                walk_rs(&src, &mut files)?;
            }
        }
    }
    let facade = root.join("src");
    if facade.is_dir() {
        walk_rs(&facade, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diag>> {
    let files = workspace_files(root)?;
    let mut diags = lint_paths(&files)?;
    // Report with root-relative paths so CI output is stable.
    let prefix = format!("{}/", root.to_string_lossy());
    for d in &mut diags {
        if let Some(rel) = d.file.strip_prefix(&prefix) {
            d.file = rel.to_string();
        }
    }
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_suppresses_same_and_next_line() {
        let trailing = "v.sort_by(|a, b| a.partial_cmp(b)); \
                        // seal-lint: allow(float-total-order) — ordering ints here";
        assert!(lint_source("crates/x/src/a.rs", trailing).is_empty());
        let above = "// seal-lint: allow(float-total-order) — ordering ints here\n\
                     v.sort_by(|a, b| a.partial_cmp(b));";
        assert!(lint_source("crates/x/src/a.rs", above).is_empty());
    }

    #[test]
    fn waiver_without_justification_rejected() {
        let src = "// seal-lint: allow(float-total-order)\n\
                   v.sort_by(|a, b| a.partial_cmp(b));";
        let d = lint_source("crates/x/src/a.rs", src);
        // The violation stands AND the waiver is flagged.
        assert!(d.iter().any(|d| d.rule == "float-total-order"), "{d:?}");
        assert!(d.iter().any(|d| d.rule == "waiver-discipline"), "{d:?}");
    }

    #[test]
    fn unknown_rule_and_unused_waivers_flagged() {
        let unknown = "// seal-lint: allow(no-such-rule) — because\nlet x = 1;";
        let d = lint_source("crates/x/src/a.rs", unknown);
        assert!(d.iter().any(|d| d.rule == "waiver-discipline"));
        let unused = "// seal-lint: allow(float-total-order) — nothing here\nlet x = 1;";
        let d = lint_source("crates/x/src/a.rs", unused);
        assert!(d.iter().any(|d| d.msg.contains("unused waiver")), "{d:?}");
    }

    #[test]
    fn waiver_only_covers_named_rule() {
        let src = "// seal-lint: allow(panic-surface) — wrong rule named\n\
                   v.sort_by(|a, b| a.partial_cmp(b));";
        let d = lint_source("crates/x/src/a.rs", src);
        assert!(d.iter().any(|d| d.rule == "float-total-order"));
    }
}
