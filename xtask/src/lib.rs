//! Repo-level lints for the `viewplan` workspace, run as
//! `cargo run -p xtask -- lint` (and in CI).
//!
//! Fourteen checks, all offline and purely textual:
//!
//! 1. **Panic ban** — no `.unwrap()` / `.expect(` / `panic!(` in library
//!    crates (`crates/*/src`) outside `#[cfg(test)]` code. Audited
//!    remainders live in `xtask/lint-allowlist.txt` as `path count`
//!    lines; the check is a *ratchet*: a file over its allowance fails,
//!    and a file under it also fails until the allowance is lowered, so
//!    the debt can only shrink.
//! 2. **Counter uniqueness** — every `obs::counter!("name")` name is
//!    registered at exactly one non-test source site, so a counter's
//!    meaning has a single owner (`crates/*/src` + the CLI in `src/`).
//! 3. **Histogram uniqueness** — the same single-owner rule for every
//!    `obs::histogram!("name")` site, so a distribution's samples (and
//!    their unit) cannot fork across recorders.
//! 4. **Trace-event uniqueness** — same single-owner rule for every
//!    `obs::trace_event!("name", …)` site, so a trace event's meaning
//!    (and its attribute schema) cannot silently fork across emitters.
//! 5. **Golden pairing** — every `tests/golden/*.vp` fixture is
//!    exercised by `tests/golden_corpus.rs`, and every snapshot under
//!    `tests/golden/expected/` corresponds to a test there (no orphaned
//!    fixtures, no dead snapshots).
//! 6. **Justified allows** — every `#[allow(...)]` carries a
//!    justification comment on the same line or the line above.
//! 7. **Ordering discipline** — every atomic `Ordering::…` site outside
//!    the `viewplan-sync` facade carries an `// ordering:` comment
//!    explaining why that memory ordering suffices, on the same line or
//!    in the comment block directly above (one block may cover a run of
//!    consecutive atomic operations). Unjustified remainders live in
//!    `xtask/sync-allowlist.txt` under the same ratchet discipline as
//!    the panic ban, so the audit debt can only shrink.
//! 8. **Raw-sync ban** — `std::thread` and the blocking
//!    `std::sync` primitives (`Mutex`, `RwLock`, `Condvar`, `mpsc`,
//!    `atomic`, …) are banned outside `crates/sync/src` and test code:
//!    all synchronization goes through the `viewplan-sync` facade so the
//!    interleaving model checker sees every yield point. `Arc`,
//!    `OnceLock`, and `Weak` are exempt (no blocking, no ordering
//!    choices).
//! 9. **Lock order** — a function that textually acquires two or more
//!    locks (`.lock()` / `.read()` / `.write()`) must carry a
//!    `// lock-order:` comment documenting the acquisition order, so
//!    every potential nesting has a written deadlock argument.
//! 10. **Environment ban** — `std::env::var` / `var_os` / `vars` are
//!     banned in library crates (`crates/*/src`) outside `#[cfg(test)]`
//!     code: behaviour is selected by explicit configuration the binary
//!     (`src/bin`) builds from its flags and environment, never by a
//!     library consulting the process environment on its own.
//! 11. **Thread-local ban** — `thread_local!` is banned outside
//!     `#[cfg(test)]` code everywhere but `crates/obs/src/ctx.rs` (one
//!     block: the request context) and the `viewplan-sync` facade (the
//!     model checker's scheduler state). Ambient state that is not in
//!     the request context does not reach worker threads; a new piece
//!     is a field of `RequestCtx`, not a new slot.
//! 12. **One fan-out site** — `parallel_map(` is called, outside
//!     `#[cfg(test)]` code, only by `crates/serve/src/batch.rs`
//!     (`BatchServer::serve_batch`) and the sweep harness in
//!     `crates/bench/`, beside its definition in
//!     `crates/core/src/parallel.rs`. A request is one thread: workers
//!     are spent across requests, never inside one, so an admission gate
//!     that let N requests in is running N pipelines.
//! 13. **The command path stays in canonical space** — outside
//!     `#[cfg(test)]` code, `crates/serve/src/command.rs` and
//!     `crates/serve/src/net.rs` call neither `denormalize(` nor
//!     `.render()`, and `command.rs` does not call `canonicalize(`: a
//!     served query is parsed straight into canonical variables and its
//!     reply is the stored template filled with the request's spellings,
//!     so no `Rewriting` is renamed or printed symbol by symbol per
//!     request. The structured path (`BatchServer::serve`) is for library
//!     callers. Nor does any non-test code of `crates/serve/src` call
//!     `canonical_key(`: `parse_canonical` encodes the cache key in the
//!     parse, and `canonicalize` with the renaming, so a key derived from
//!     an already parsed query is a second walk the parse was built to
//!     save.
//! 14. **The plan path builds no list** — outside `#[cfg(test)]` code,
//!     `crates/cost/src/optimizer.rs` names `.rewritings()` at no site.
//!     The optimizer walks the generator's covers cheapest view sizes
//!     first and builds only the rewritings whose sizes can still beat
//!     the plan in hand; `.rewritings()` would build and decide every
//!     cover in the space.
//!
//! The scans work on a *stripped* view of each file: comment and string
//! contents are blanked (structure and braces preserved), so `"panic!"`
//! in a doc comment or a string never trips a lint. `#[cfg(test)]`
//! items are skipped by brace matching. The vendored dependency shims
//! under `stubs/` are out of scope — they mirror external APIs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The outcome of a lint run: human-readable violations, empty = clean.
#[derive(Debug, Default)]
pub struct LintReport {
    /// One line per violation.
    pub violations: Vec<String>,
}

impl LintReport {
    /// True iff the repo is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Replaces the contents of comments (line, nested block) and literals
/// (strings, raw strings, chars) with spaces, preserving the line
/// structure and all code characters — so later scans can match tokens
/// and count braces without a real parser.
pub fn strip_code(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    let keep_or_blank = |b: u8| if b == b'\n' { b'\n' } else { b' ' };
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out.extend([b' ', b' ']);
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out.extend([b' ', b' ']);
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        out.push(keep_or_blank(bytes[i]));
                        i += 1;
                    }
                }
            }
            b'r' if matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#')) => {
                // Raw string: r"…", r#"…"#, r##"…"##, …
                let start = i;
                let mut j = i + 1;
                let mut hashes = 0usize;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    out.extend(std::iter::repeat_n(b' ', j + 1 - start));
                    i = j + 1;
                    'raw: while i < bytes.len() {
                        if bytes[i] == b'"' {
                            let mut k = 0usize;
                            while k < hashes && bytes.get(i + 1 + k) == Some(&b'#') {
                                k += 1;
                            }
                            if k == hashes {
                                out.extend(std::iter::repeat_n(b' ', hashes + 1));
                                i += hashes + 1;
                                break 'raw;
                            }
                        }
                        out.push(keep_or_blank(bytes[i]));
                        i += 1;
                    }
                } else {
                    out.push(bytes[i]);
                    i += 1;
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => {
                            out.extend([b' ', b' ']);
                            i += 2;
                        }
                        b'"' => {
                            out.push(b' ');
                            i += 1;
                            break;
                        }
                        b => {
                            out.push(keep_or_blank(b));
                            i += 1;
                        }
                    }
                }
            }
            b'\'' => {
                // Char literal ('x', '\n', '\u{1F600}') vs lifetime ('a).
                let lit_end = if bytes.get(i + 1) == Some(&b'\\') {
                    let mut j = i + 2;
                    while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
                        j += 1;
                    }
                    (bytes.get(j) == Some(&b'\'')).then_some(j)
                } else {
                    (bytes.get(i + 2) == Some(&b'\'')).then_some(i + 2)
                };
                match lit_end {
                    Some(end) => {
                        out.extend(std::iter::repeat_n(b' ', end + 1 - i));
                        i = end + 1;
                    }
                    None => {
                        out.push(bytes[i]);
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Marks, per line of `stripped`, whether it belongs to a
/// `#[cfg(test)]` item (attribute line included), by matching the brace
/// block that follows the attribute.
pub fn test_region_mask(stripped: &str) -> Vec<bool> {
    let lines: Vec<&str> = stripped.lines().collect();
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                mask[j] = true;
                for c in lines[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                // A `#[cfg(test)] use …;` style item ends at the first
                // `;` before any brace opens.
                if !opened && lines[j].contains(';') {
                    break;
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// The library source roots the panic ban covers: every `crates/*/src`.
fn library_roots(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                out.push(src);
            }
        }
    }
    out.sort();
    out
}

/// Counts banned panic sites (`.unwrap()`, `.expect(`, `panic!(`) on the
/// non-test lines of a stripped file. `self.expect(` is excluded: the
/// parsers in this workspace define their own fallible `expect` helper
/// returning `Result`, which is exactly the pattern the ban pushes
/// toward.
pub fn count_panic_sites(stripped: &str) -> usize {
    let mask = test_region_mask(stripped);
    stripped
        .lines()
        .zip(&mask)
        .filter(|&(_, &in_test)| !in_test)
        .map(|(line, _)| {
            line.matches(".unwrap()").count()
                + line.matches(".expect(").count()
                + line.matches("panic!(").count()
                - line.matches("self.expect(").count()
        })
        .sum()
}

/// Parses `xtask/lint-allowlist.txt`: `path count` per line, `#`
/// comments. Paths are relative to the repo root.
fn parse_allowlist(text: &str) -> Result<BTreeMap<String, usize>, String> {
    let mut out = BTreeMap::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(path), Some(count), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("allowlist line {}: expected `path count`", no + 1));
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("allowlist line {}: bad count {count:?}", no + 1))?;
        out.insert(path.to_string(), count);
    }
    Ok(out)
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Check 1: the `.unwrap()` / `.expect(` / `panic!(` ratchet over the
/// library crates.
fn check_panics(root: &Path, report: &mut LintReport) {
    let allowlist_path = root.join("xtask/lint-allowlist.txt");
    let allowlist = match std::fs::read_to_string(&allowlist_path) {
        Ok(text) => match parse_allowlist(&text) {
            Ok(a) => a,
            Err(e) => {
                report.violations.push(format!("lint-allowlist.txt: {e}"));
                return;
            }
        },
        Err(_) => BTreeMap::new(),
    };
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for src_root in library_roots(root) {
        for file in rust_files(&src_root) {
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            let count = count_panic_sites(&strip_code(&text));
            if count > 0 {
                seen.insert(rel(root, &file), count);
            }
        }
    }
    for (path, &actual) in &seen {
        let allowed = allowlist.get(path).copied().unwrap_or(0);
        if actual > allowed {
            report.violations.push(format!(
                "{path}: {actual} unwrap/expect/panic site(s) in non-test library code, \
                 allowlist permits {allowed} — return a typed error or justify with a \
                 debug_assert!, don't panic on user input"
            ));
        }
    }
    for (path, &allowed) in &allowlist {
        let actual = seen.get(path).copied().unwrap_or(0);
        if actual < allowed {
            report.violations.push(format!(
                "{path}: allowlist permits {allowed} panic site(s) but only {actual} remain — \
                 ratchet xtask/lint-allowlist.txt down"
            ));
        }
    }
}

/// Check 2: each `counter!("name")` name has exactly one non-test
/// registration site.
fn check_counter_uniqueness(root: &Path, report: &mut LintReport) {
    let mut sites: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut roots = library_roots(root);
    roots.push(root.join("src"));
    for src_root in roots {
        for file in rust_files(&src_root) {
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            // Counter names live in string literals, so extract them from
            // the original text — but only on lines that are non-test,
            // non-comment code in the stripped view.
            let stripped = strip_code(&text);
            let mask = test_region_mask(&stripped);
            for ((line_no, original), (stripped_line, &in_test)) in
                text.lines().enumerate().zip(stripped.lines().zip(&mask))
            {
                if in_test || !stripped_line.contains("counter!(") {
                    continue;
                }
                let mut rest = original;
                while let Some(at) = rest.find("counter!(\"") {
                    let name_start = &rest[at + "counter!(\"".len()..];
                    if let Some(end) = name_start.find('"') {
                        sites
                            .entry(name_start[..end].to_string())
                            .or_default()
                            .push(format!("{}:{}", rel(root, &file), line_no + 1));
                        rest = &name_start[end..];
                    } else {
                        break;
                    }
                }
            }
        }
    }
    for (name, at) in sites {
        if at.len() > 1 {
            report.violations.push(format!(
                "counter {name:?} is registered at {} sites ({}) — funnel all increments \
                 through one helper so the name has a single owner",
                at.len(),
                at.join(", ")
            ));
        }
    }
}

/// Check 2b: each `histogram!("name")` name has exactly one non-test
/// registration site — same ownership rule as counters, so a latency
/// distribution is never split across call sites with different units.
fn check_histogram_uniqueness(root: &Path, report: &mut LintReport) {
    let mut sites: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut roots = library_roots(root);
    roots.push(root.join("src"));
    for src_root in roots {
        for file in rust_files(&src_root) {
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            let stripped = strip_code(&text);
            let mask = test_region_mask(&stripped);
            for ((line_no, original), (stripped_line, &in_test)) in
                text.lines().enumerate().zip(stripped.lines().zip(&mask))
            {
                if in_test || !stripped_line.contains("histogram!(") {
                    continue;
                }
                let mut rest = original;
                while let Some(at) = rest.find("histogram!(\"") {
                    let name_start = &rest[at + "histogram!(\"".len()..];
                    if let Some(end) = name_start.find('"') {
                        sites
                            .entry(name_start[..end].to_string())
                            .or_default()
                            .push(format!("{}:{}", rel(root, &file), line_no + 1));
                        rest = &name_start[end..];
                    } else {
                        break;
                    }
                }
            }
        }
    }
    for (name, at) in sites {
        if at.len() > 1 {
            report.violations.push(format!(
                "histogram {name:?} is recorded at {} sites ({}) — funnel all samples \
                 through one helper so the name (and its unit) has a single owner",
                at.len(),
                at.join(", ")
            ));
        }
    }
}

/// Check 3: each `trace_event!("name", …)` name has exactly one non-test
/// emission site. Unlike counters, trace events routinely span lines
/// (`trace_event!(` then the name on the next line), so the name may be
/// the first string literal on the *following* line.
fn check_trace_event_uniqueness(root: &Path, report: &mut LintReport) {
    let mut sites: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut roots = library_roots(root);
    roots.push(root.join("src"));
    for src_root in roots {
        for file in rust_files(&src_root) {
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            let stripped = strip_code(&text);
            let mask = test_region_mask(&stripped);
            let originals: Vec<&str> = text.lines().collect();
            for (line_no, (stripped_line, &in_test)) in stripped.lines().zip(&mask).enumerate() {
                if in_test || !stripped_line.contains("trace_event!(") {
                    continue;
                }
                let original = originals.get(line_no).copied().unwrap_or_default();
                let Some(at) = original.find("trace_event!(") else {
                    continue;
                };
                // The event name is the first string literal after the
                // macro's open paren — on this line, or (multi-line
                // invocation) leading the next line.
                let same_line = &original[at + "trace_event!(".len()..];
                let name = first_string_literal(same_line).or_else(|| {
                    originals
                        .get(line_no + 1)
                        .and_then(|next| first_string_literal(next.trim_start()))
                });
                if let Some(name) = name {
                    sites.entry(name).or_default().push(format!(
                        "{}:{}",
                        rel(root, &file),
                        line_no + 1
                    ));
                }
            }
        }
    }
    for (name, at) in sites {
        if at.len() > 1 {
            report.violations.push(format!(
                "trace event {name:?} is emitted at {} sites ({}) — funnel all emissions \
                 through one helper so the event (and its attribute schema) has a single owner",
                at.len(),
                at.join(", ")
            ));
        }
    }
}

/// The contents of the string literal that `text` starts with (after
/// optional whitespace), if any.
fn first_string_literal(text: &str) -> Option<String> {
    let rest = text.trim_start().strip_prefix('"')?;
    rest.find('"').map(|end| rest[..end].to_string())
}

/// Check 4: golden fixtures and snapshots pair up with the corpus tests.
fn check_golden_pairing(root: &Path, report: &mut LintReport) {
    let corpus = std::fs::read_to_string(root.join("tests/golden_corpus.rs")).unwrap_or_default();
    let list = |dir: &Path, ext: &str| -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == ext))
            .collect();
        v.sort();
        v
    };
    for fixture in list(&root.join("tests/golden"), "vp") {
        let path = rel(root, &fixture);
        if !corpus.contains(&path) {
            report.violations.push(format!(
                "{path}: golden fixture is not exercised by tests/golden_corpus.rs"
            ));
        }
    }
    for snapshot in list(&root.join("tests/golden/expected"), "txt") {
        let stem = snapshot
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        if !corpus.contains(&stem) {
            report.violations.push(format!(
                "{}: orphaned snapshot — no test named {stem:?} in tests/golden_corpus.rs",
                rel(root, &snapshot)
            ));
        }
    }
}

/// Check 5: every `#[allow(...)]` (or `#![allow(...)]`) carries a
/// justification comment on the same line or the line above.
fn check_justified_allows(root: &Path, report: &mut LintReport) {
    let mut roots = library_roots(root);
    roots.push(root.join("src"));
    for src_root in roots {
        for file in rust_files(&src_root) {
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            let stripped = strip_code(&text);
            let originals: Vec<&str> = text.lines().collect();
            for (line_no, stripped_line) in stripped.lines().enumerate() {
                if !stripped_line.contains("[allow(") {
                    continue;
                }
                let same_line = originals
                    .get(line_no)
                    .is_some_and(|l| l.contains("//") || l.contains("/*"));
                let line_above = line_no
                    .checked_sub(1)
                    .and_then(|i| originals.get(i))
                    .is_some_and(|l| {
                        let t = l.trim();
                        t.starts_with("//") || t.ends_with("*/")
                    });
                if !same_line && !line_above {
                    report.violations.push(format!(
                        "{}:{}: #[allow(...)] without a justification comment (same line or \
                         the line above)",
                        rel(root, &file),
                        line_no + 1
                    ));
                }
            }
        }
    }
}

/// The atomic memory-ordering tokens check 7 polices. `std::cmp::Ordering`
/// variants (`Less`, `Equal`, `Greater`) never match.
const ATOMIC_ORDERINGS: [&str; 5] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// True iff the stripped line performs an atomic operation with an
/// explicit memory ordering.
fn has_atomic_ordering(stripped_line: &str) -> bool {
    ATOMIC_ORDERINGS.iter().any(|t| stripped_line.contains(t))
}

/// True iff the facade source root (`crates/sync/src`) contains `file`.
/// The facade is where raw `std::sync` is *supposed* to live (check 8),
/// but its own `Ordering::…` constants still need justification.
fn in_sync_facade(root: &Path, file: &Path) -> bool {
    file.strip_prefix(root.join("crates/sync/src")).is_ok()
}

/// Counts the atomic-ordering sites on the non-test lines of a file
/// that lack an `// ordering:` justification. A justification counts if
/// it is on the same line, or reachable by walking upward through
/// consecutive lines that are comments or other atomic operations (so
/// one comment block may cover a run of related atomics).
pub fn count_unjustified_orderings(text: &str) -> usize {
    let stripped = strip_code(text);
    let mask = test_region_mask(&stripped);
    let originals: Vec<&str> = text.lines().collect();
    let stripped_lines: Vec<&str> = stripped.lines().collect();
    let mut unjustified = 0;
    for (line_no, (&stripped_line, &in_test)) in stripped_lines.iter().zip(&mask).enumerate() {
        if in_test || !has_atomic_ordering(stripped_line) {
            continue;
        }
        let mut justified = originals
            .get(line_no)
            .is_some_and(|l| l.contains("ordering:"));
        let mut i = line_no;
        while !justified && i > 0 {
            i -= 1;
            let above = originals.get(i).copied().unwrap_or_default().trim();
            if above.starts_with("//") {
                justified = above.contains("ordering:");
                if justified {
                    break;
                }
            } else if !has_atomic_ordering(stripped_lines.get(i).copied().unwrap_or_default()) {
                break;
            }
        }
        if !justified {
            unjustified += 1;
        }
    }
    unjustified
}

/// Check 7: the `// ordering:` justification ratchet over every atomic
/// `Ordering::…` site (library crates, the facade itself, and the CLI).
fn check_ordering_justifications(root: &Path, report: &mut LintReport) {
    let allowlist_path = root.join("xtask/sync-allowlist.txt");
    let allowlist = match std::fs::read_to_string(&allowlist_path) {
        Ok(text) => match parse_allowlist(&text) {
            Ok(a) => a,
            Err(e) => {
                report.violations.push(format!("sync-allowlist.txt: {e}"));
                return;
            }
        },
        Err(_) => BTreeMap::new(),
    };
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut roots = library_roots(root);
    roots.push(root.join("src"));
    for src_root in roots {
        for file in rust_files(&src_root) {
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            let count = count_unjustified_orderings(&text);
            if count > 0 {
                seen.insert(rel(root, &file), count);
            }
        }
    }
    for (path, &actual) in &seen {
        let allowed = allowlist.get(path).copied().unwrap_or(0);
        if actual > allowed {
            report.violations.push(format!(
                "{path}: {actual} atomic Ordering site(s) without an `// ordering:` \
                 justification, sync-allowlist permits {allowed} — explain why the chosen \
                 memory ordering suffices (what the operation publishes, what tolerates \
                 staleness) on the same line or the comment block above"
            ));
        }
    }
    for (path, &allowed) in &allowlist {
        let actual = seen.get(path).copied().unwrap_or(0);
        if actual < allowed {
            report.violations.push(format!(
                "{path}: sync-allowlist permits {allowed} unjustified Ordering site(s) but \
                 only {actual} remain — ratchet xtask/sync-allowlist.txt down"
            ));
        }
    }
}

/// Check 8: raw synchronization primitives are confined to the
/// `viewplan-sync` facade (and test code). Everything else must go
/// through the facade so the model checker can interpose on every
/// acquisition, wait, and atomic access.
fn check_raw_sync_ban(root: &Path, report: &mut LintReport) {
    // `Arc`/`OnceLock`/`Weak` are exempt: no blocking, no ordering
    // choice to audit. Everything else under std::sync is facade-only.
    const BANNED_STD_SYNC: [&str; 11] = [
        "Mutex",
        "RwLock",
        "Condvar",
        "mpsc",
        "atomic",
        "Barrier",
        "Once",
        "PoisonError",
        "LockResult",
        "TryLockError",
        "WaitTimeoutResult",
    ];
    let banned_after_std_sync = |rest: &str| -> bool {
        if let Some(group) = rest.strip_prefix('{') {
            // `use std::sync::{Arc, Mutex};` — scan the group items.
            let group = group.split('}').next().unwrap_or(group);
            group
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .any(|tok| BANNED_STD_SYNC.contains(&tok))
        } else {
            let ident: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            // `Once` must not swallow `OnceLock`.
            BANNED_STD_SYNC.contains(&ident.as_str())
        }
    };
    let mut roots = library_roots(root);
    roots.push(root.join("src"));
    for src_root in roots {
        for file in rust_files(&src_root) {
            if in_sync_facade(root, &file) {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            let stripped = strip_code(&text);
            let mask = test_region_mask(&stripped);
            for (line_no, (line, &in_test)) in stripped.lines().zip(&mask).enumerate() {
                if in_test {
                    continue;
                }
                let mut offending = None;
                if line.contains("std::thread") {
                    offending = Some("std::thread");
                } else {
                    let mut rest = line;
                    while let Some(at) = rest.find("std::sync::") {
                        let after = &rest[at + "std::sync::".len()..];
                        if banned_after_std_sync(after) {
                            offending = Some("std::sync");
                            break;
                        }
                        rest = after;
                    }
                }
                if let Some(what) = offending {
                    report.violations.push(format!(
                        "{}:{}: raw {what} primitive outside the viewplan-sync facade — \
                         use viewplan_sync::{{Mutex, RwLock, Condvar, thread, atomics}} \
                         so the interleaving model checker sees every yield point",
                        rel(root, &file),
                        line_no + 1
                    ));
                }
            }
        }
    }
}

/// Check 9: a function that textually acquires two or more locks needs a
/// written `// lock-order:` argument (within the function, or in the
/// three lines above its signature).
fn check_lock_order(root: &Path, report: &mut LintReport) {
    let mut roots = library_roots(root);
    roots.push(root.join("src"));
    for src_root in roots {
        for file in rust_files(&src_root) {
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            let stripped = strip_code(&text);
            let mask = test_region_mask(&stripped);
            let originals: Vec<&str> = text.lines().collect();
            let lines: Vec<&str> = stripped.lines().collect();
            let mut line_no = 0;
            while line_no < lines.len() {
                let line = lines[line_no];
                let is_fn = !mask[line_no]
                    && (line.trim_start().starts_with("fn ")
                        || line.contains(" fn ")
                        || line.contains("\tfn "));
                if !is_fn {
                    line_no += 1;
                    continue;
                }
                // The function region runs from the signature to the
                // close of its first brace block (nested items included
                // — their lock sites count toward the enclosing fn,
                // which can only over-ask for a comment, never miss one).
                let mut depth = 0i64;
                let mut opened = false;
                let mut end = line_no;
                for (j, l) in lines.iter().enumerate().skip(line_no) {
                    for c in l.chars() {
                        match c {
                            '{' => {
                                depth += 1;
                                opened = true;
                            }
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    end = j;
                    // Trait-method declarations (`fn f(&self) -> T;`)
                    // end at a `;` before any brace opens.
                    if (!opened && l.contains(';')) || (opened && depth <= 0) {
                        break;
                    }
                }
                let acquisitions: usize = (line_no..=end)
                    .map(|j| {
                        lines[j].matches(".lock()").count()
                            + lines[j].matches(".read()").count()
                            + lines[j].matches(".write()").count()
                    })
                    .sum();
                if acquisitions >= 2 {
                    let documented = (line_no.saturating_sub(3)..=end)
                        .any(|j| originals.get(j).is_some_and(|l| l.contains("lock-order:")));
                    if !documented {
                        report.violations.push(format!(
                            "{}:{}: function acquires {acquisitions} locks with no \
                             `// lock-order:` comment — document the acquisition order \
                             (and why no path reverses it) in or above the function",
                            rel(root, &file),
                            line_no + 1
                        ));
                    }
                }
                line_no = end + 1;
            }
        }
    }
}

/// Check 10: library crates never read the process environment. Matches
/// `env::var`, which also covers `var_os`, `vars` and `vars_os`;
/// `env::args`, `env::temp_dir` and the `env!` macro are not reads of
/// caller-controlled switches and stay legal.
fn check_env_ban(root: &Path, report: &mut LintReport) {
    for src_root in library_roots(root) {
        for file in rust_files(&src_root) {
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            let stripped = strip_code(&text);
            let mask = test_region_mask(&stripped);
            for (line_no, (line, &in_test)) in stripped.lines().zip(&mask).enumerate() {
                if !in_test && line.contains("env::var") {
                    report.violations.push(format!(
                        "{}:{}: library code reads the process environment — take the value \
                         as explicit configuration; only the binary parses flags and env",
                        rel(root, &file),
                        line_no + 1
                    ));
                }
            }
        }
    }
}

/// Check 11: one thread-local slot. A `thread_local!` anywhere but the
/// request context and the sync facade is state no worker pool carries
/// (the pool forks the context, nothing else); a second block in
/// `ctx.rs` is a second slot under another name.
fn check_thread_local_ban(root: &Path, report: &mut LintReport) {
    let ctx = root.join("crates/obs/src/ctx.rs");
    let mut roots = library_roots(root);
    roots.push(root.join("src"));
    for src_root in roots {
        for file in rust_files(&src_root) {
            if in_sync_facade(root, &file) {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            let stripped = strip_code(&text);
            let mask = test_region_mask(&stripped);
            let mut allowed = usize::from(file == ctx);
            for (line_no, (line, &in_test)) in stripped.lines().zip(&mask).enumerate() {
                if in_test || !line.contains("thread_local!") {
                    continue;
                }
                if allowed > 0 {
                    allowed -= 1;
                    continue;
                }
                report.violations.push(format!(
                    "{}:{}: thread_local! outside the request context — make the state a \
                     field of viewplan_obs::ctx::RequestCtx so worker pools carry it",
                    rel(root, &file),
                    line_no + 1
                ));
            }
        }
    }
}

/// Check 12: one fan-out site. The pool is for running *requests* side
/// by side; a call from inside the pipeline multiplies the runnable
/// threads behind whatever admitted the request.
fn check_fan_out_sites(root: &Path, report: &mut LintReport) {
    const ALLOWED: [&str; 3] = [
        "crates/core/src/parallel.rs",
        "crates/serve/src/batch.rs",
        "crates/bench/",
    ];
    let mut roots = library_roots(root);
    roots.push(root.join("src"));
    for src_root in roots {
        for file in rust_files(&src_root) {
            let path = rel(root, &file);
            if ALLOWED.iter().any(|allowed| path.starts_with(allowed)) {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            let stripped = strip_code(&text);
            let mask = test_region_mask(&stripped);
            for (line_no, (line, &in_test)) in stripped.lines().zip(&mask).enumerate() {
                if !in_test && line.contains("parallel_map(") {
                    report.violations.push(format!(
                        "{path}:{}: parallel_map( inside the request pipeline — a request is \
                         one thread; fan out across requests through BatchServer::serve_batch",
                        line_no + 1
                    ));
                }
            }
        }
    }
}

/// Check 13: the command path stays in canonical space. `command.rs`
/// and `net.rs` are what both front-ends run per request; the calls
/// banned here are the per-request work the answer templates replaced.
fn check_command_path(root: &Path, report: &mut LintReport) {
    const BANNED: [(&str, &[&str]); 2] = [
        (
            "crates/serve/src/command.rs",
            &["denormalize(", ".render()", "canonicalize("],
        ),
        ("crates/serve/src/net.rs", &["denormalize(", ".render()"]),
    ];
    for (path, calls) in BANNED {
        let Ok(text) = std::fs::read_to_string(root.join(path)) else {
            continue;
        };
        let stripped = strip_code(&text);
        let mask = test_region_mask(&stripped);
        for (line_no, (line, &in_test)) in stripped.lines().zip(&mask).enumerate() {
            for call in calls
                .iter()
                .filter(|call| !in_test && line.contains(**call))
            {
                report.violations.push(format!(
                    "{path}:{}: {call} on the command path — parse with parse_canonical and \
                     reply with the cached answer's filled template (BatchServer::serve is \
                     the structured path, for library callers)",
                    line_no + 1
                ));
            }
        }
    }
    for file in rust_files(&root.join("crates/serve/src")) {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        let stripped = strip_code(&text);
        let mask = test_region_mask(&stripped);
        for (line_no, (line, &in_test)) in stripped.lines().zip(&mask).enumerate() {
            if !in_test && line.contains("canonical_key(") {
                report.violations.push(format!(
                    "{}:{}: canonical_key( in the serving crate — a served query's key comes \
                     from the parse that numbered it (parse_canonical) or the renaming \
                     (canonicalize), not from walking the parsed query again",
                    rel(root, &file),
                    line_no + 1
                ));
            }
        }
    }
}

/// Check 14: the plan path walks the covers and builds no rewriting list.
fn check_plan_loop(root: &Path, report: &mut LintReport) {
    const OPTIMIZER: &str = "crates/cost/src/optimizer.rs";
    let Ok(text) = std::fs::read_to_string(root.join(OPTIMIZER)) else {
        return;
    };
    let stripped = strip_code(&text);
    let mask = test_region_mask(&stripped);
    let sites: Vec<usize> = stripped
        .lines()
        .zip(&mask)
        .enumerate()
        .filter(|(_, (line, &in_test))| !in_test && line.contains(".rewritings()"))
        .map(|(line_no, _)| line_no + 1)
        .collect();
    if !sites.is_empty() {
        report.violations.push(format!(
            "{OPTIMIZER}: .rewritings() at line(s) {sites:?} — the plan path walks the \
             covers (CoreCoverResult::walk) and builds only those whose view sizes can \
             still beat the plan in hand"
        ));
    }
}

/// Runs every lint over the workspace at `root`.
pub fn run_lint(root: &Path) -> LintReport {
    let mut report = LintReport::default();
    check_panics(root, &mut report);
    check_counter_uniqueness(root, &mut report);
    check_histogram_uniqueness(root, &mut report);
    check_trace_event_uniqueness(root, &mut report);
    check_golden_pairing(root, &mut report);
    check_justified_allows(root, &mut report);
    check_ordering_justifications(root, &mut report);
    check_raw_sync_ban(root, &mut report);
    check_lock_order(root, &mut report);
    check_env_ban(root, &mut report);
    check_thread_local_ban(root, &mut report);
    check_fan_out_sites(root, &mut report);
    check_command_path(root, &mut report);
    check_plan_loop(root, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch workspace on disk, deleted on drop.
    struct TempRepo {
        root: PathBuf,
    }

    impl TempRepo {
        fn new(tag: &str) -> Self {
            let root =
                std::env::temp_dir().join(format!("xtask-lint-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            std::fs::create_dir_all(&root).expect("create temp repo");
            TempRepo { root }
        }

        fn write(&self, rel_path: &str, contents: &str) {
            let path = self.root.join(rel_path);
            std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            std::fs::write(path, contents).expect("write");
        }
    }

    impl Drop for TempRepo {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }

    #[test]
    fn strip_code_blanks_comments_strings_and_chars() {
        let src = r##"let s = "panic!(no)"; // .unwrap() here
let r = r#"also .expect( nothing"#; /* panic!( */
let c = '"'; let lt: &'static str = s;
real.unwrap();"##;
        let stripped = strip_code(src);
        assert_eq!(stripped.lines().count(), src.lines().count());
        assert_eq!(stripped.matches(".unwrap()").count(), 1);
        assert_eq!(stripped.matches(".expect(").count(), 0);
        assert_eq!(stripped.matches("panic!(").count(), 0);
        // Lifetimes survive stripping (not mistaken for char literals).
        assert!(stripped.contains("'static"));
    }

    #[test]
    fn test_region_mask_covers_cfg_test_modules_only() {
        let src = "fn a() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn b() { y.unwrap(); }\n\
                   }\n\
                   fn c() { z.unwrap(); }\n";
        let stripped = strip_code(src);
        let mask = test_region_mask(&stripped);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
        assert_eq!(count_panic_sites(&stripped), 2);
    }

    #[test]
    fn count_panic_sites_ignores_unwrap_or_variants() {
        let stripped = strip_code("a.unwrap_or(0); b.unwrap_or_default(); c.unwrap_or_else(f);");
        assert_eq!(count_panic_sites(&stripped), 0);
    }

    #[test]
    fn lint_fails_on_injected_unwrap_in_library_code() {
        let repo = TempRepo::new("injected-unwrap");
        repo.write(
            "crates/demo/src/lib.rs",
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
             #[cfg(test)]\n\
             mod tests { fn ok() { Some(1).unwrap(); } }\n",
        );
        let report = run_lint(&repo.root);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("crates/demo/src/lib.rs"));
        assert!(report.violations[0].contains("1 unwrap/expect/panic"));
    }

    #[test]
    fn lint_allowlist_permits_audited_sites_and_ratchets_down() {
        let repo = TempRepo::new("allowlist");
        repo.write(
            "crates/demo/src/lib.rs",
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        repo.write(
            "xtask/lint-allowlist.txt",
            "# audited: f() is only called on Some in this demo\n\
             crates/demo/src/lib.rs 1\n",
        );
        assert!(run_lint(&repo.root).is_clean());

        // Debt shrank below the allowance: the ratchet demands tightening.
        repo.write("crates/demo/src/lib.rs", "pub fn f() {}\n");
        let report = run_lint(&repo.root);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("ratchet"));
    }

    #[test]
    fn lint_flags_duplicate_counter_registrations() {
        let repo = TempRepo::new("dup-counter");
        repo.write(
            "crates/demo/src/lib.rs",
            "fn a() { counter!(\"demo.hits\"); }\nfn b() { counter!(\"demo.hits\"); }\n",
        );
        let report = run_lint(&repo.root);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("demo.hits"));
        assert!(report.violations[0].contains("2 sites"));
    }

    #[test]
    fn lint_flags_duplicate_histogram_registrations() {
        let repo = TempRepo::new("dup-histogram");
        repo.write(
            "crates/demo/src/lib.rs",
            "fn a() { histogram!(\"demo.lat_us\").record(1); }\n\
             fn b() { histogram!(\"demo.lat_us\").record(2); }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { histogram!(\"demo.lat_us\"); } }\n",
        );
        let report = run_lint(&repo.root);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("demo.lat_us"));
        assert!(report.violations[0].contains("2 sites"));
    }

    #[test]
    fn lint_flags_duplicate_trace_events_across_line_shapes() {
        let repo = TempRepo::new("dup-trace-event");
        // One single-line site plus one multi-line site (name on the
        // next line) must still be seen as the same event; doc comments
        // and #[cfg(test)] code must not count as sites.
        repo.write(
            "crates/demo/src/lib.rs",
            "/// e.g. `obs::trace_event!(\"demo.fired\")` in a doc comment\n\
             fn a() { obs::trace_event!(\"demo.fired\", (\"n\", 1)); }\n\
             fn b() {\n\
                 obs::trace_event!(\n\
                     \"demo.fired\",\n\
                     (\"n\", 2)\n\
                 );\n\
             }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { obs::trace_event!(\"demo.fired\"); } }\n",
        );
        let report = run_lint(&repo.root);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("demo.fired"));
        assert!(report.violations[0].contains("2 sites"));
    }

    #[test]
    fn lint_flags_unpaired_golden_fixtures_and_orphan_snapshots() {
        let repo = TempRepo::new("golden");
        repo.write("tests/golden/used.vp", "q(X) :- e(X, Y).\n");
        repo.write("tests/golden/unused.vp", "q(X) :- e(X, Y).\n");
        repo.write("tests/golden/expected/used_rewrite.txt", "out\n");
        repo.write("tests/golden/expected/orphan.txt", "out\n");
        repo.write(
            "tests/golden_corpus.rs",
            "golden!(used_rewrite => [\"rewrite\", \"tests/golden/used.vp\"]);\n",
        );
        let report = run_lint(&repo.root);
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
        assert!(report.violations.iter().any(|v| v.contains("unused.vp")));
        assert!(report.violations.iter().any(|v| v.contains("orphan.txt")));
    }

    #[test]
    fn lint_requires_justified_allows() {
        let repo = TempRepo::new("allows");
        repo.write(
            "crates/demo/src/lib.rs",
            "// the span type forces this signature\n\
             #[allow(clippy::too_many_arguments)]\n\
             pub fn ok() {}\n\
             #[allow(dead_code)]\n\
             pub fn bad() {}\n",
        );
        let report = run_lint(&repo.root);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("lib.rs:4"));
    }

    #[test]
    fn lint_flags_unjustified_atomic_orderings() {
        let repo = TempRepo::new("ordering");
        // One justified site (comment block covering a run of atomics),
        // one bare site, one test-only site; `cmp::Ordering` and doc
        // comments must not count.
        repo.write(
            "crates/demo/src/lib.rs",
            "/// Sorts by `Ordering::Relaxed`-ish vibes (doc, not code).\n\
             fn ok(c: &AtomicU64) {\n\
                 // ordering: monotone tally; readers tolerate staleness.\n\
                 c.fetch_add(1, Ordering::Relaxed);\n\
                 c.fetch_add(1, Ordering::Relaxed);\n\
             }\n\
             fn bad(c: &AtomicU64) -> u64 { c.load(Ordering::Acquire) }\n\
             fn cmp(a: u32, b: u32) -> std::cmp::Ordering { a.cmp(&b) }\n\
             #[cfg(test)]\n\
             mod tests { fn t(c: &AtomicU64) { c.load(Ordering::SeqCst); } }\n",
        );
        let report = run_lint(&repo.root);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("crates/demo/src/lib.rs"));
        assert!(report.violations[0].contains("1 atomic Ordering site(s)"));
    }

    #[test]
    fn sync_allowlist_permits_audited_sites_and_ratchets_down() {
        let repo = TempRepo::new("sync-allowlist");
        repo.write(
            "crates/demo/src/lib.rs",
            "fn bad(c: &AtomicU64) -> u64 { c.load(Ordering::Acquire) }\n",
        );
        repo.write(
            "xtask/sync-allowlist.txt",
            "# audited: pre-facade code, justification pending\n\
             crates/demo/src/lib.rs 1\n",
        );
        assert!(run_lint(&repo.root).is_clean());

        // The site gains its justification: the stale allowance must be
        // ratcheted out, not silently kept as headroom.
        repo.write(
            "crates/demo/src/lib.rs",
            "fn good(c: &AtomicU64) -> u64 {\n\
                 // ordering: pairs with the Release store in `publish`.\n\
                 c.load(Ordering::Acquire)\n\
             }\n",
        );
        let report = run_lint(&repo.root);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("ratchet xtask/sync-allowlist.txt down"));
    }

    #[test]
    fn lint_bans_raw_sync_outside_the_facade() {
        let repo = TempRepo::new("raw-sync");
        // Raw primitives in a library crate: banned. The same tokens in
        // the facade itself, in test code, or naming the exempt types
        // (Arc/OnceLock): allowed.
        repo.write(
            "crates/demo/src/lib.rs",
            "use std::sync::{Arc, Mutex};\n\
             fn f() { std::thread::sleep(d); }\n\
             fn g() -> std::sync::mpsc::Receiver<u32> { todo!() }\n\
             use std::sync::OnceLock;\n\
             /// Wraps a `std::sync::Mutex` (doc comment: not a site).\n\
             fn ok() {}\n\
             #[cfg(test)]\n\
             mod tests { use std::thread; fn t() { thread::yield_now(); } }\n",
        );
        repo.write(
            "crates/sync/src/lib.rs",
            "pub use std::sync::Mutex;\npub use std::thread;\n",
        );
        let report = run_lint(&repo.root);
        let raw: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.contains("viewplan-sync facade"))
            .collect();
        assert_eq!(raw.len(), 3, "{:?}", report.violations);
        assert!(raw.iter().all(|v| v.contains("crates/demo/src/lib.rs")));
        assert!(raw.iter().any(|v| v.contains("lib.rs:1")), "use-group site");
        assert!(
            raw.iter().any(|v| v.contains("lib.rs:2")),
            "std::thread site"
        );
        assert!(raw.iter().any(|v| v.contains("lib.rs:3")), "mpsc path site");
    }

    #[test]
    fn lint_requires_lock_order_comments_for_multi_lock_functions() {
        let repo = TempRepo::new("lock-order");
        repo.write(
            "crates/demo/src/lib.rs",
            "// lock-order: registry before each entry; writers take only\n\
             // their own entry, so the nesting cannot invert.\n\
             fn ok(&self) {\n\
                 let reg = self.registry.lock();\n\
                 for e in reg.iter() { e.state.lock().touch(); }\n\
             }\n\
             fn bad(&self) {\n\
                 let a = self.a.lock();\n\
                 let b = self.b.write();\n\
             }\n\
             fn single(&self) { self.a.lock().touch(); }\n\
             #[cfg(test)]\n\
             mod tests { fn t(&self) { x.lock(); y.lock(); } }\n",
        );
        let report = run_lint(&repo.root);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("lib.rs:7"));
        assert!(report.violations[0].contains("lock-order"));
    }

    #[test]
    fn lint_bans_environment_reads_in_library_crates() {
        let repo = TempRepo::new("env-ban");
        // Two reads in a library crate: banned. Doc comments, strings,
        // test code, `env::args`/`env!`, and the binary: allowed.
        repo.write(
            "crates/demo/src/lib.rs",
            "/// Once read `std::env::var(\"DEMO\")` (doc comment: not a site).\n\
             pub fn a() -> bool { std::env::var(\"DEMO_THREADS\").is_ok() }\n\
             pub fn b() -> bool { env::var_os(\"DEMO_ENGINE\").is_some() }\n\
             pub fn ok() -> usize { std::env::args().count() + env!(\"CARGO\").len() }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { std::env::var(\"SEED\").ok(); } }\n",
        );
        repo.write(
            "src/bin/demo.rs",
            "fn main() { let _ = std::env::var(\"DEMO_FAULT\"); }\n",
        );
        let report = run_lint(&repo.root);
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
        assert!(report.violations[0].contains("crates/demo/src/lib.rs:2"));
        assert!(report.violations[1].contains("crates/demo/src/lib.rs:3"));
        assert!(report.violations[0].contains("process environment"));
    }

    #[test]
    fn lint_bans_thread_locals_outside_the_request_context() {
        let repo = TempRepo::new("thread-local-ban");
        let block = "thread_local! { static SLOT: Cell<u32> = const { Cell::new(0) }; }\n";
        // A library crate and the binary: banned. The request context's
        // one block, the sync facade and test code: allowed; a second
        // block in ctx.rs is a second slot.
        repo.write(
            "crates/demo/src/lib.rs",
            &format!(
                "/// Not a `thread_local!` site.\n{block}#[cfg(test)]\nmod tests {{ {block} }}\n"
            ),
        );
        repo.write("src/cli.rs", block);
        repo.write("crates/sync/src/model.rs", block);
        repo.write("crates/obs/src/ctx.rs", &format!("{block}{block}"));
        let report = run_lint(&repo.root);
        assert_eq!(report.violations.len(), 3, "{:?}", report.violations);
        assert!(report.violations[0].contains("crates/demo/src/lib.rs:2"));
        assert!(report.violations[1].contains("crates/obs/src/ctx.rs:2"));
        assert!(report.violations[2].contains("src/cli.rs:1"));
        assert!(report.violations[0].contains("request context"));
    }

    #[test]
    fn lint_bans_the_worker_pool_inside_the_request_pipeline() {
        let repo = TempRepo::new("fan-out-sites");
        let call = "fn f() { parallel_map(2, &[1], |x| *x); }\n";
        // The pipeline and the CLI: banned. The definition, the batch
        // server, the sweep harness and test code: allowed.
        repo.write(
            "crates/core/src/corecover.rs",
            &format!(
                "/// Not a `parallel_map(` call.\n{call}#[cfg(test)]\nmod tests {{ {call} }}\n"
            ),
        );
        repo.write("src/cli.rs", call);
        repo.write("crates/core/src/parallel.rs", call);
        repo.write("crates/serve/src/batch.rs", call);
        repo.write("crates/bench/src/lib.rs", call);
        let report = run_lint(&repo.root);
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
        assert!(report.violations[0].contains("crates/core/src/corecover.rs:2"));
        assert!(report.violations[1].contains("src/cli.rs:1"));
        assert!(report.violations[0].contains("one thread"));
    }

    #[test]
    fn lint_bans_structured_rendering_on_the_command_path() {
        let repo = TempRepo::new("command-path");
        let calls = "fn f() { canonicalize(q); denormalize(a, b); }\nfn g() { a.render(); }\n";
        // Both files: comments and test code are not calls; `net.rs` may
        // say `canonicalize(`; the batch server may say all three.
        let file =
            format!("/// Not a `.render()` call.\n{calls}#[cfg(test)]\nmod tests {{ {calls} }}\n");
        repo.write("crates/serve/src/command.rs", &file);
        repo.write("crates/serve/src/net.rs", &file);
        repo.write("crates/serve/src/batch.rs", calls);
        let report = run_lint(&repo.root);
        assert_eq!(report.violations.len(), 5, "{:?}", report.violations);
        for (violation, at) in report.violations.iter().zip([
            "command.rs:2: denormalize(",
            "command.rs:2: canonicalize(",
            "command.rs:3: .render()",
            "net.rs:2: denormalize(",
            "net.rs:3: .render()",
        ]) {
            assert!(violation.contains(at), "{violation}");
            assert!(violation.contains("parse_canonical"));
        }
    }

    #[test]
    fn lint_bans_a_second_key_walk_in_the_serving_crate() {
        let repo = TempRepo::new("key-walk");
        let rekey = "fn serve_canonical(q: Q) { let key = canonical_key(&q); }\n";
        // Comments, strings and test code are not calls; the batch
        // server's `canonicalize(` (which encodes the key as it renames)
        // is not this call; outside the serving crate it is allowed.
        let rest = "/// Not a `canonical_key(` call.\n\
                    #[cfg(test)]\n\
                    mod tests { fn t(q: &Q) { canonical_key(q); } }\n";
        let renaming = "fn serve(q: &Q) { let c = canonicalize(q); }\n";
        repo.write("crates/serve/src/batch.rs", &format!("{rest}{renaming}"));
        repo.write("crates/serve/src/command.rs", rest);
        repo.write("crates/containment/src/cache.rs", rekey);
        assert!(run_lint(&repo.root).is_clean());

        repo.write(
            "crates/serve/src/batch.rs",
            &format!("{rest}{renaming}{rekey}"),
        );
        repo.write("crates/serve/src/command.rs", &format!("{rekey}{rest}"));
        let report = run_lint(&repo.root);
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
        assert!(report.violations[0].contains("crates/serve/src/batch.rs:5: canonical_key("));
        assert!(report.violations[1].contains("crates/serve/src/command.rs:1: canonical_key("));
        assert!(report.violations[1].contains("parse_canonical"));
    }

    #[test]
    fn lint_finds_a_rewriting_list_on_the_plan_path() {
        let repo = TempRepo::new("plan-loop");
        let path = "crates/cost/src/optimizer.rs";
        let walk = "fn plan(r: &R) { let w = r.walk(|_| 1.0); }\n";
        // Comments and test code are not sites.
        let rest = "/// Not a `.rewritings()` site.\n\
                    #[cfg(test)]\n\
                    mod tests { fn t(r: &R) { r.rewritings().len(); } }\n";
        repo.write(path, &format!("{walk}{rest}"));
        assert!(run_lint(&repo.root).is_clean());

        let list = "fn again(r: &R) { for x in r.rewritings() {} }\n";
        repo.write(path, &format!("{walk}{list}{rest}"));
        let report = run_lint(&repo.root);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains(".rewritings() at line(s) [2]"));
        assert!(report.violations[0].contains("walks the covers"));
    }

    #[test]
    fn the_repo_itself_is_clean() {
        // CARGO_MANIFEST_DIR is <root>/xtask.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("workspace root")
            .to_path_buf();
        let report = run_lint(&root);
        assert!(
            report.is_clean(),
            "repo lint violations:\n{}",
            report.violations.join("\n")
        );
    }
}
