//! The rule engine: each rule turns one of `docs/ARCHITECTURE.md`'s
//! prose invariants into a token-stream check.
//!
//! Every rule is a heuristic over the [`crate::lexer`] token stream —
//! deliberately so: with no `syn` available the checks trade type-level
//! precision for zero dependencies, and the waiver mechanism
//! (`// seal-lint: allow(<rule>) — <justification>`) is the designed
//! escape hatch for the false positives a token-level view cannot
//! avoid. A waived exception is a *documented* exception, which is the
//! point.
//!
//! | rule | invariant | motivated by |
//! |------|-----------|--------------|
//! | `float-total-order` | floats are ordered with `total_cmp`, never `partial_cmp` | the PR 3 NaN-ordering sweep |
//! | `panic-surface` | no `unwrap`/`expect`/`panic!` in `seal-server`'s non-test code | the PR 7 hostile-input hardening |
//! | `unsafe-forbid` | every crate root carries `#![forbid(unsafe_code)]`; no `unsafe` tokens anywhere | the arena safety story (PRs 1–5) |
//! | `lock-discipline` | refresh-gate → route → shard-state lock order; route/state guards never live across a probe | the PR 4/PR 8 swap protocols |
//! | `crate-docs` | crate roots open with `//!` docs; libraries warn on missing docs | the PR 2 `cargo doc -D warnings` gate |
//! | `persisted-narrowing-cast` | no `as` narrowing on the persisted-format paths (`serialize.rs`, `compress.rs`, `container.rs`, `persist.rs`) | the codec-widening audit |
//! | `probe-path-clock` | no `Instant::now` in `seal-core`'s filters, signatures or verifier, or in `seal-bench`'s baselines: callers time around the call | the removal of the per-filter clocks |
//! | `waiver-discipline` | waivers name real rules, justify themselves, and suppress something | the PR 9 lint gate |
//!
//! See `docs/ARCHITECTURE.md#enforced-invariants-seal-lint` for the
//! full rationale behind each rule.

use crate::lexer::{Lexed, Tok, TokKind};

/// One diagnostic: a rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Diag {
    /// Path of the offending file (as given to the driver).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl Diag {
    /// Renders the diagnostic in the `file:line: [rule] msg (anchor)`
    /// shape the CI log shows.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: error[{}]: {} (see docs/ARCHITECTURE.md#{})",
            self.file,
            self.line,
            self.rule,
            self.msg,
            anchor(self.rule)
        )
    }
}

/// Names of every rule, in reporting order.
pub const RULES: &[&str] = &[
    "float-total-order",
    "panic-surface",
    "unsafe-forbid",
    "lock-discipline",
    "crate-docs",
    "persisted-narrowing-cast",
    "probe-path-clock",
    "waiver-discipline",
];

/// The architecture-doc anchor explaining why a rule exists.
pub fn anchor(rule: &str) -> &'static str {
    match rule {
        "float-total-order" => "float-total-order",
        "panic-surface" => "panic-surface",
        "unsafe-forbid" => "unsafe-forbid",
        "lock-discipline" => "lock-discipline",
        "crate-docs" => "crate-docs",
        "persisted-narrowing-cast" => "persisted-narrowing-cast",
        "probe-path-clock" => "probe-path-clock",
        _ => "waiver-discipline",
    }
}

/// One-line rationale per rule (for `--list-rules`).
pub fn rationale(rule: &str) -> &'static str {
    match rule {
        "float-total-order" => {
            "float ordering must use f64::total_cmp — partial_cmp is NaN-unsound (PR 3 bug class)"
        }
        "panic-surface" => {
            "seal-server non-test code must not unwrap/expect/panic! — hostile input gets typed errors (PR 7)"
        }
        "unsafe-forbid" => {
            "every crate root carries #![forbid(unsafe_code)]; no unsafe blocks anywhere (arena safety, PRs 1-5)"
        }
        "lock-discipline" => {
            "refresh-gate -> route -> shard-state lock order; route/state guards never held across a probe (PRs 4/8)"
        }
        "crate-docs" => {
            "crate roots open with //! docs; library roots carry #![warn(missing_docs)] (PR 2 doc gate)"
        }
        "persisted-narrowing-cast" => {
            "no `as` narrowing to u8/u16/u32/usize on the persisted-format paths — counts and offsets cross the disk boundary via try_from or a waived losslessness argument (PR 10)"
        }
        "probe-path-clock" => {
            "no Instant::now in seal-core's filters/, signatures/ or verify.rs, or seal-bench's baselines/ — the probe path counts work, callers time around the call"
        }
        _ => "waivers must name real rules, carry a justification, and actually suppress a diagnostic",
    }
}

/// Runs every applicable rule over one lexed file. Returns *raw*
/// diagnostics — the driver applies waivers afterwards.
pub fn check_file(path: &str, lexed: &Lexed) -> Vec<Diag> {
    let norm = path.replace('\\', "/");
    let mask = test_mask(&lexed.toks);
    let mut out = Vec::new();
    float_total_order(&norm, lexed, &mut out);
    if norm.contains("server/src/") {
        panic_surface(&norm, lexed, &mask, &mut out);
    }
    unsafe_forbid(&norm, lexed, &mut out);
    let name = norm.rsplit('/').next().unwrap_or(&norm);
    if matches!(name, "sharded.rs" | "live.rs" | "batcher.rs") {
        lock_discipline(&norm, lexed, &mask, &mut out);
    }
    crate_docs(&norm, lexed, &mut out);
    if matches!(
        name,
        "serialize.rs" | "compress.rs" | "container.rs" | "persist.rs"
    ) {
        persisted_narrowing_cast(&norm, lexed, &mask, &mut out);
    }
    if is_probe_path(&norm) {
        probe_path_clock(&norm, lexed, &mut out);
    }
    out
}

/// The files a query's filter and verify steps run through.
fn is_probe_path(path: &str) -> bool {
    [
        "core/src/filters/",
        "core/src/signatures/",
        "bench/src/baselines/",
    ]
    .iter()
    .any(|dir| path.contains(dir))
        || path.ends_with("core/src/verify.rs")
}

/// True for `…/src/lib.rs` and `…/src/main.rs` — the files rustc uses
/// as crate roots, where crate-level inner attributes must live.
fn is_crate_root(path: &str) -> bool {
    path.ends_with("src/lib.rs") || path.ends_with("src/main.rs")
}

/// Marks every token inside `#[cfg(test)]` / `#[test]` items, so the
/// panic-surface and lock rules skip test code. An attribute whose
/// idents include both `cfg` and `test` (but not `not`) — or whose
/// only ident is `test` — marks the following item: through the
/// matching `}` of its first block, or through `;` for blockless items.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // Collect the attribute's idents up to the matching ']'.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut idents: Vec<&str> = Vec::new();
        while j < toks.len() && depth > 0 {
            match &toks[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => depth -= 1,
                TokKind::Ident => idents.push(&toks[j].text),
                _ => {}
            }
            j += 1;
        }
        let is_test_attr =
            (idents.contains(&"cfg") && idents.contains(&"test") && !idents.contains(&"not"))
                || idents.as_slice() == ["test"];
        if !is_test_attr {
            i = j;
            continue;
        }
        // Mark through the item that follows: find its first '{' (then
        // the matching '}') or a ';' before any brace.
        let start = i;
        let mut k = j;
        let mut braces = 0usize;
        let mut end = toks.len();
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct('{') => braces += 1,
                TokKind::Punct('}') => {
                    braces = braces.saturating_sub(1);
                    if braces == 0 {
                        end = k + 1;
                        break;
                    }
                }
                TokKind::Punct(';') if braces == 0 => {
                    end = k + 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        for m in mask.iter_mut().take(end).skip(start) {
            *m = true;
        }
        i = end;
    }
    mask
}

/// `float-total-order`: any `.partial_cmp(` call is flagged. The
/// workspace convention (established in PR 3 after three NaN-ordering
/// bugs) is that *every* ordering of floats goes through
/// `f64::total_cmp` or a key extracted into a totally-ordered type;
/// `partial_cmp` + `unwrap`/`unwrap_or(Equal)` either panics on NaN or
/// silently breaks sort's total-order contract (UB-adjacent: quicksort
/// on an inconsistent comparator can duplicate/lose elements).
/// Implementing the `PartialOrd` trait (`fn partial_cmp`) is fine —
/// only call sites are flagged.
fn float_total_order(path: &str, lexed: &Lexed, out: &mut Vec<Diag>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if toks[i].is_ident("partial_cmp")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            out.push(Diag {
                file: path.to_string(),
                line: toks[i].line,
                rule: "float-total-order",
                msg: "NaN-unsound ordering: call f64::total_cmp (or sort by a total-order \
                      key), not partial_cmp"
                    .to_string(),
            });
        }
    }
}

/// `panic-surface`: in `crates/server/src`, non-test code must not
/// contain `.unwrap()`, `.expect(…)`, or the panicking macros. The
/// serving tier's contract (PR 7) is that every input — however
/// hostile — produces a typed error mapped to an HTTP status, and that
/// internal invariants are either encoded in types or waived with a
/// written unreachability argument.
fn panic_surface(path: &str, lexed: &Lexed, mask: &[bool], out: &mut Vec<Diag>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        let t = &toks[i];
        let flagged = if t.is_ident("unwrap") {
            // `.unwrap()` exactly — unwrap_or / unwrap_or_else are the
            // non-panicking conversions this rule wants instead.
            i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
        } else if t.is_ident("expect") {
            i > 0 && toks[i - 1].is_punct('.') && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        } else if matches!(
            t.text.as_str(),
            "panic" | "todo" | "unimplemented" | "unreachable"
        ) && t.kind == TokKind::Ident
        {
            toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
        } else {
            false
        };
        if flagged {
            out.push(Diag {
                file: path.to_string(),
                line: t.line,
                rule: "panic-surface",
                msg: format!(
                    "`{}` on the serving tier: return a typed error mapped to an HTTP \
                     status, recover (e.g. PoisonError::into_inner), or waive with an \
                     unreachability argument",
                    t.text
                ),
            });
        }
    }
}

/// `unsafe-forbid`: crate roots must carry `#![forbid(unsafe_code)]`,
/// and no scanned file may contain an `unsafe` token at all. The
/// arenas' safety story (frozen CSR columns probed lock-free by many
/// threads) rests on the compiler's guarantees; the ROADMAP explicitly
/// keeps `unsafe` out even where it would buy speed (parallel splice)
/// until a reviewed exception exists.
fn unsafe_forbid(path: &str, lexed: &Lexed, out: &mut Vec<Diag>) {
    let toks = &lexed.toks;
    if is_crate_root(path) && !has_inner_attr(toks, &["forbid", "unsafe_code"]) {
        out.push(Diag {
            file: path.to_string(),
            line: 1,
            rule: "unsafe-forbid",
            msg: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
    for t in toks {
        if t.is_ident("unsafe") {
            out.push(Diag {
                file: path.to_string(),
                line: t.line,
                rule: "unsafe-forbid",
                msg: "`unsafe` is banned workspace-wide; restructure or propose a reviewed \
                      exception"
                    .to_string(),
            });
        }
    }
}

/// True when the token stream contains an inner attribute `#![…]`
/// whose idents include every name in `needles`.
fn has_inner_attr(toks: &[Tok], needles: &[&str]) -> bool {
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].is_punct('#') && toks[i + 1].is_punct('!') && toks[i + 2].is_punct('[') {
            let mut depth = 1usize;
            let mut j = i + 3;
            let mut idents: Vec<&str> = Vec::new();
            while j < toks.len() && depth > 0 {
                match &toks[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => depth -= 1,
                    TokKind::Ident => idents.push(&toks[j].text),
                    _ => {}
                }
                j += 1;
            }
            if needles.iter().all(|n| idents.contains(n)) {
                return true;
            }
            i = j;
        } else {
            i += 1;
        }
    }
    false
}

/// Lock acquisition order (PR 8's protocol, generalized): a lower rank
/// may be held while taking a higher rank, never the reverse.
fn lock_rank(name: &str) -> u8 {
    match name {
        "refresh_gate" => 0,
        "route" => 1,
        "state" => 2,
        _ => 3,
    }
}

/// Calls that enter the probe / build path. Route and state guards are
/// ns-scale by contract (PR 4: "never held across a probe"); holding
/// one across any of these turns every concurrent reader into a
/// convoy — or deadlocks outright when the callee takes the same lock.
const PROBE_CALLS: &[&str] = &[
    "search",
    "search_batch",
    "search_scored",
    "search_top_k",
    "search_with_ctx",
    "candidates_into",
    "qualifying",
    "qualifying_into",
    "build_next_generation",
    "refresh_via",
    "overlay_delta",
];

/// `lock-discipline`: a brace-depth heuristic over the files that own
/// locks (`sharded.rs`, `live.rs`, `batcher.rs`). Tracks `let g =
/// ….lock()` / `route_lock()` guard bindings until `drop(g)` or scope
/// exit, and flags (a) acquiring a lower-ranked lock while holding a
/// higher-ranked one, (b) re-acquiring a lock already held (self
/// deadlock), (c) a live route/state guard across a probe-path call.
fn lock_discipline(path: &str, lexed: &Lexed, mask: &[bool], out: &mut Vec<Diag>) {
    struct Guard {
        name: String,
        lock: String,
        depth: usize,
    }
    let toks = &lexed.toks;
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    // Pending `let` binding: Some(pattern-name) until the statement's `;`.
    let mut pending_let: Option<String> = None;
    let mut i = 0;
    while i < toks.len() {
        if mask[i] {
            i += 1;
            continue;
        }
        let t = &toks[i];
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            TokKind::Punct(';') => pending_let = None,
            TokKind::Ident => {
                if t.text == "let" {
                    // Bound name: next ident, skipping `mut`; tuple /
                    // struct patterns get a placeholder.
                    let mut j = i + 1;
                    while toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                        j += 1;
                    }
                    pending_let = Some(match toks.get(j) {
                        Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                        _ => "_pattern".to_string(),
                    });
                } else if t.text == "drop"
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
                {
                    if let Some(name) = toks.get(i + 2).map(|t| t.text.clone()) {
                        guards.retain(|g| g.name != name);
                    }
                } else if is_lock_acquire(toks, i) {
                    let lock = acquired_lock_name(toks, i);
                    let rank = lock_rank(&lock);
                    for g in &guards {
                        if g.lock == lock {
                            out.push(Diag {
                                file: path.to_string(),
                                line: t.line,
                                rule: "lock-discipline",
                                msg: format!(
                                    "re-acquiring `{lock}` while guard `{}` already holds it \
                                     (self deadlock)",
                                    g.name
                                ),
                            });
                        } else if lock_rank(&g.lock) > rank {
                            out.push(Diag {
                                file: path.to_string(),
                                line: t.line,
                                rule: "lock-discipline",
                                msg: format!(
                                    "lock order violation: acquiring `{lock}` while holding \
                                     `{}` — the order is refresh_gate -> route -> shard state",
                                    g.lock
                                ),
                            });
                        }
                    }
                    if let Some(name) = pending_let.take() {
                        guards.push(Guard { name, lock, depth });
                    }
                } else if PROBE_CALLS.contains(&t.text.as_str())
                    && i > 0
                    && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'))
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                {
                    for g in &guards {
                        if matches!(g.lock.as_str(), "route" | "state") {
                            out.push(Diag {
                                file: path.to_string(),
                                line: t.line,
                                rule: "lock-discipline",
                                msg: format!(
                                    "guard `{}` ({} lock) is live across probe-path call \
                                     `{}` — collect ids under the lock, drop it, then probe",
                                    g.name, g.lock, t.text
                                ),
                            });
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// True when token `i` is a `.lock(` call, a `route_lock(` helper
/// call, or a `relock(` poison-recovering call — the three ways this
/// codebase acquires a mutex.
fn is_lock_acquire(toks: &[Tok], i: usize) -> bool {
    (toks[i].is_ident("lock")
        && i > 0
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('(')))
        || ((toks[i].is_ident("route_lock") || toks[i].is_ident("relock"))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('(')))
}

/// The lock's name for ranking: the receiver ident before `.lock()`
/// (`self.state.lock()` → `state`), `route` for `route_lock()`, or
/// the last ident of the argument for `relock(&self.state)`.
fn acquired_lock_name(toks: &[Tok], i: usize) -> String {
    if toks[i].is_ident("route_lock") {
        return "route".to_string();
    }
    if toks[i].is_ident("relock") {
        let mut j = i + 1;
        let mut name = "_unknown".to_string();
        while let Some(t) = toks.get(j) {
            if t.is_punct(')') {
                break;
            }
            if t.kind == TokKind::Ident {
                name = t.text.clone();
            }
            j += 1;
        }
        return name;
    }
    // toks[i-1] is '.', toks[i-2] is the receiver field.
    match toks.get(i.wrapping_sub(2)) {
        Some(t) if t.kind == TokKind::Ident => t.text.clone(),
        _ => "_unknown".to_string(),
    }
}

/// Narrowing integer targets a persisted-format cast must not `as`
/// into: anything an oversized in-memory count would silently wrap to
/// on its way into a length/offset field (`u64` stays exempt — every
/// widening to the on-disk field width is lossless).
const NARROWING_TARGETS: &[&str] = &["u8", "u16", "u32", "usize"];

/// `persisted-narrowing-cast`: on the files that define the on-disk
/// formats (`serialize.rs`, `compress.rs` — whose arena `to_bytes`
/// persists verbatim — `container.rs`, `persist.rs`), a bare
/// `as u8/u16/u32/usize` is flagged. A count or offset that crosses
/// the disk boundary through a silent truncation writes a *valid-CRC
/// container that lies about its own contents* — the one corruption
/// class checksums cannot catch. The conversions this codebase wants
/// instead: `try_from` mapped to a typed codec error on the load
/// path, `try_from` + `expect` with an invariant argument on the save
/// path, or a waiver stating why the cast is lossless.
fn persisted_narrowing_cast(path: &str, lexed: &Lexed, mask: &[bool], out: &mut Vec<Diag>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        if toks[i].is_ident("as")
            && toks.get(i + 1).is_some_and(|t| {
                t.kind == TokKind::Ident && NARROWING_TARGETS.contains(&t.text.as_str())
            })
        {
            out.push(Diag {
                file: path.to_string(),
                line: toks[i].line,
                rule: "persisted-narrowing-cast",
                msg: format!(
                    "`as {}` on a persisted-format path can silently truncate a count or \
                     offset behind a valid CRC: use try_from (typed error on load, \
                     justified expect on save), or waive with a losslessness argument",
                    toks[i + 1].text
                ),
            });
        }
    }
}

/// `probe-path-clock`: any `Instant::now` on the probe path is
/// flagged. PR 26 removed eleven per-filter clocks that fed
/// `SearchStats` timers no benchmark read, at ~7 % of a 5 µs query;
/// the probe path reports work as counters, and whoever wants a time
/// (the benchmark's layer trace, `repro`, the CLI) takes it around the
/// call.
fn probe_path_clock(path: &str, lexed: &Lexed, out: &mut Vec<Diag>) {
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            out.push(Diag {
                file: path.to_string(),
                line: t.line,
                rule: "probe-path-clock",
                msg: "clock on the probe path: count the work in SearchStats and let the \
                      caller time around the call"
                    .to_string(),
            });
        }
    }
}

/// `crate-docs`: crate roots must open with `//!` docs, and library
/// roots (`lib.rs`) must carry `#![warn(missing_docs)]` so the CI doc
/// gate (`cargo doc -D warnings` since PR 2) has teeth on new items.
fn crate_docs(path: &str, lexed: &Lexed, out: &mut Vec<Diag>) {
    if !is_crate_root(path) {
        return;
    }
    if !lexed.comments.iter().any(|c| c.inner_doc) {
        out.push(Diag {
            file: path.to_string(),
            line: 1,
            rule: "crate-docs",
            msg: "crate root has no `//!` crate-level documentation header".to_string(),
        });
    }
    if path.ends_with("src/lib.rs") && !has_inner_attr(&lexed.toks, &["warn", "missing_docs"]) {
        out.push(Diag {
            file: path.to_string(),
            line: 1,
            rule: "crate-docs",
            msg: "library crate root is missing `#![warn(missing_docs)]`".to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn diags(path: &str, src: &str) -> Vec<Diag> {
        check_file(path, &lex(src))
    }

    #[test]
    fn partial_cmp_call_flagged_trait_impl_not() {
        let bad = diags("crates/x/src/a.rs", "v.sort_by(|a, b| a.partial_cmp(b));");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "float-total-order");
        let ok = diags(
            "crates/x/src/a.rs",
            "impl PartialOrd for X { fn partial_cmp(&self, o: &X) -> Option<Ordering> { \
             Some(self.cmp(o)) } }",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn panic_surface_scoped_and_test_aware() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests { fn g(x: Option<u32>) { x.unwrap(); panic!(); } }";
        let in_server = diags("crates/server/src/h.rs", src);
        assert_eq!(in_server.len(), 1, "{in_server:?}");
        assert_eq!(in_server[0].line, 1);
        let outside = diags("crates/core/src/h.rs", src);
        assert!(outside.is_empty());
    }

    #[test]
    fn unwrap_or_not_flagged() {
        let d = diags(
            "crates/server/src/h.rs",
            "let a = x.unwrap_or(0); let b = y.unwrap_or_else(|| 1); let c = z.unwrap_or_default();",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn crate_root_attrs_required() {
        let d = diags("crates/x/src/lib.rs", "pub fn f() {}");
        let rules: Vec<&str> = d.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"unsafe-forbid"));
        assert!(rules.contains(&"crate-docs"));
        let clean = "//! Docs.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}";
        assert!(diags("crates/x/src/lib.rs", clean).is_empty());
        // main.rs: forbid + //! required, missing_docs not.
        let main_ok = "//! Docs.\n#![forbid(unsafe_code)]\nfn main() {}";
        assert!(diags("crates/x/src/main.rs", main_ok).is_empty());
    }

    #[test]
    fn lock_order_and_probe_rules() {
        // Guard dropped before the probe: clean.
        let ok = "fn f(&self) { let ids = { let r = self.route_lock(); r.ids() }; \
                  self.shards[0].search(q); }";
        assert!(diags("crates/core/src/sharded.rs", ok).is_empty());
        // Probe under a live route guard: flagged.
        let bad = "fn f(&self) { let r = self.route_lock(); self.shards[0].search(q); }";
        let d = diags("crates/core/src/sharded.rs", bad);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "lock-discipline");
        // Out-of-order nested acquisition: flagged.
        let bad2 = "fn g(&self) { let s = self.state.lock(); let r = self.route.lock(); }";
        let d2 = diags("crates/core/src/live.rs", bad2);
        assert_eq!(d2.len(), 1, "{d2:?}");
        // Same file name outside the lock set: rule does not run.
        assert!(diags("crates/core/src/other.rs", bad).is_empty());
    }

    #[test]
    fn narrowing_casts_flagged_only_on_persisted_paths() {
        let src = "fn f(n: usize, out: &mut Vec<u8>) { \
                   out.extend_from_slice(&(n as u32).to_le_bytes()); let w = n as u64; }";
        for path in [
            "crates/index/src/serialize.rs",
            "crates/index/src/compress.rs",
        ] {
            let d = diags(path, src);
            assert_eq!(d.len(), 1, "{path}: {d:?}");
            assert_eq!(d[0].rule, "persisted-narrowing-cast");
        }
        // The same cast outside the persisted-format files is exempt,
        // and `as u64` widenings never flag.
        assert!(diags("crates/index/src/arena.rs", src).is_empty());
        // Test code on a persisted path is exempt.
        let test_src = "#[cfg(test)]\nmod tests { fn g(n: usize) -> u32 { n as u32 } }";
        assert!(diags("crates/core/src/persist.rs", test_src).is_empty());
    }

    #[test]
    fn clocks_flagged_only_on_the_probe_path() {
        let src = "fn f() { let t = std::time::Instant::now(); g(); t.elapsed(); }";
        for path in [
            "crates/core/src/filters/grid.rs",
            "crates/bench/src/baselines/irtree.rs",
            "crates/core/src/signatures/grid.rs",
            "crates/core/src/verify.rs",
        ] {
            let d = diags(path, src);
            assert_eq!(d.len(), 1, "{path}: {d:?}");
            assert_eq!(d[0].rule, "probe-path-clock");
        }
        assert!(diags("crates/core/src/live.rs", src).is_empty());
        assert!(diags("crates/server/src/server.rs", src).is_empty());
    }

    #[test]
    fn explicit_drop_releases_guard() {
        let src = "fn f(&self) { let r = self.route_lock(); drop(r); \
                   self.shards[0].search(q); }";
        assert!(diags("crates/core/src/sharded.rs", src).is_empty());
    }

    #[test]
    fn refresh_gate_may_span_builds() {
        let src = "fn f(&self) { let _g = self.refresh_gate.lock(); \
                   let e = SealEngine::build_next_generation(a, b); \
                   let mut s = self.state.lock(); s.swap(e); }";
        assert!(diags("crates/core/src/live.rs", src).is_empty());
    }
}
