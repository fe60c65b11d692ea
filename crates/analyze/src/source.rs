//! Per-file source model: the lexed token stream plus the derived
//! facts every rule needs — line numbers, test-code regions, function
//! spans, `// analyze: allow(...)` annotations, and comment lookups.
//!
//! ## Test-code discrimination
//!
//! A span is *test code* (exempt from the panic-freedom and
//! atomic-ordering rules) when any of these hold:
//!
//! * the file lives under a `tests/` or `benches/` directory
//!   (integration tests and benches),
//! * the item is annotated `#[test]`, `#[cfg(test)]` or
//!   `#[cfg(all(test, ...))]` — the annotated item's full extent
//!   (through its matching closing brace or terminating `;`) is a test
//!   region. `#[cfg(not(test))]` deliberately does **not** count: that
//!   code ships.
//!
//! Doctests need no special casing: code inside `///` comments is part
//! of a single comment token, so rules scanning significant tokens
//! never see it.

use std::ops::Range;
use std::path::PathBuf;

use crate::lexer::{lex, Token, TokenKind};

/// The rules a finding can belong to (also the names accepted by the
/// `analyze: allow(...)` annotation).
pub const RULES: &[&str] = &[
    "panic_freedom",
    "atomic_ordering",
    "lock_order",
    "unsafe_safety",
    "blocking_under_lock",
    "allow_syntax",
];

/// One parsed `// analyze: allow(<rule>, reason = "...")` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule being suppressed.
    pub rule: String,
    /// Whether a non-empty reason string was supplied (required).
    pub has_reason: bool,
    /// Line the comment sits on (1-based).
    pub line: usize,
    /// Line the annotation applies to: the comment's own line for a
    /// trailing comment, the next code-bearing line for a standalone
    /// comment line.
    pub target_line: usize,
}

/// A lexed source file plus derived per-line facts.
#[derive(Debug)]
pub struct SourceFile {
    /// Path as discovered on disk.
    pub path: PathBuf,
    /// Workspace-relative path with forward slashes — what findings and
    /// the policy table match against.
    pub rel: String,
    /// Full text.
    pub text: String,
    /// The tiling token stream.
    pub tokens: Vec<Token>,
    /// Byte offset where each line starts; `line_starts[0] == 0`.
    line_starts: Vec<usize>,
    /// Byte ranges of test code (see module docs), sorted, merged.
    test_regions: Vec<Range<usize>>,
    /// Whether the whole file is test code by path.
    test_file: bool,
    /// Parsed allow annotations.
    pub allows: Vec<Allow>,
}

impl SourceFile {
    /// Lex `text` and precompute the derived facts. `rel` is the
    /// workspace-relative path with forward slashes.
    pub fn new(path: PathBuf, rel: String, text: String) -> SourceFile {
        let tokens = lex(&text);
        let mut line_starts = vec![0usize];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let test_file = rel.split('/').any(|seg| seg == "tests" || seg == "benches");
        let mut file = SourceFile {
            path,
            rel,
            text,
            tokens,
            line_starts,
            test_regions: Vec::new(),
            test_file,
            allows: Vec::new(),
        };
        file.test_regions = file.compute_test_regions();
        file.allows = file.parse_allows();
        file
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Whether `offset` falls in test code (file-level or region-level).
    pub fn is_test_code(&self, offset: usize) -> bool {
        self.test_file
            || self
                .test_regions
                .iter()
                .any(|r| r.start <= offset && offset < r.end)
    }

    /// Whether the whole file is test code by path (`tests/`, `benches/`).
    pub fn is_test_file(&self) -> bool {
        self.test_file
    }

    /// Indexes of significant (non-trivia) tokens, in order.
    pub fn significant(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.tokens.len()).filter(|&i| self.tokens[i].is_significant())
    }

    /// The next significant token index strictly after `i`.
    pub fn next_significant(&self, i: usize) -> Option<usize> {
        ((i + 1)..self.tokens.len()).find(|&j| self.tokens[j].is_significant())
    }

    /// The previous significant token index strictly before `i`.
    pub fn prev_significant(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| self.tokens[j].is_significant())
    }

    /// Token text helper.
    pub fn text_of(&self, i: usize) -> &str {
        self.tokens[i].text(&self.text)
    }

    /// Whether token `i` is the identifier `word`.
    pub fn is_ident(&self, i: usize, word: &str) -> bool {
        self.tokens[i].kind == TokenKind::Ident && self.text_of(i) == word
    }

    /// All comment text attached to `line`: trailing comments on the
    /// line itself plus the contiguous run of comment-only lines
    /// directly above it, concatenated. Attribute-only lines (starting
    /// with `#`) are skipped while walking up, so a comment above
    /// `#[inline]` still attaches to the item below.
    pub fn attached_comments(&self, line: usize) -> String {
        let mut out = String::new();
        for t in self.tokens_on_line(line) {
            if self.tokens[t].is_comment() {
                out.push_str(self.text_of(t));
                out.push('\n');
            }
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            match self.line_class(l) {
                LineClass::CommentOnly => {
                    for t in self.tokens_on_line(l) {
                        if self.tokens[t].is_comment() {
                            out.push_str(self.text_of(t));
                            out.push('\n');
                        }
                    }
                }
                LineClass::AttributeOnly | LineClass::Blank => continue,
                LineClass::Code => break,
            }
        }
        out
    }

    /// Like [`attached_comments`](Self::attached_comments), but while
    /// walking up also skips over lines whose first significant token
    /// is `unsafe` (the "comment above a group" rule for stacked
    /// `unsafe impl` items).
    pub fn attached_comments_over_unsafe_group(&self, line: usize) -> String {
        let mut out = String::new();
        for t in self.tokens_on_line(line) {
            if self.tokens[t].is_comment() {
                out.push_str(self.text_of(t));
                out.push('\n');
            }
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            match self.line_class(l) {
                LineClass::CommentOnly => {
                    for t in self.tokens_on_line(l) {
                        if self.tokens[t].is_comment() {
                            out.push_str(self.text_of(t));
                            out.push('\n');
                        }
                    }
                }
                LineClass::AttributeOnly | LineClass::Blank => continue,
                LineClass::Code => {
                    // Only stacked `unsafe impl` items share one
                    // comment; any other code line ends the walk.
                    let sig: Vec<usize> = self
                        .tokens_on_line(l)
                        .into_iter()
                        .filter(|&t| self.tokens[t].is_significant())
                        .collect();
                    match sig.as_slice() {
                        [first, second, ..]
                            if self.is_ident(*first, "unsafe")
                                && self.is_ident(*second, "impl") =>
                        {
                            continue;
                        }
                        _ => break,
                    }
                }
            }
        }
        out
    }

    /// Token indexes whose span starts on `line` (1-based).
    pub fn tokens_on_line(&self, line: usize) -> Vec<usize> {
        // Lines are short; a scan keyed off the precomputed line starts
        // is plenty. Find the byte range of the line first.
        if line == 0 || line > self.line_starts.len() {
            return Vec::new();
        }
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .copied()
            .unwrap_or(self.text.len());
        self.tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.start >= start && t.start < end)
            .map(|(i, _)| i)
            .collect()
    }

    fn line_class(&self, line: usize) -> LineClass {
        let toks = self.tokens_on_line(line);
        let mut saw_comment = false;
        let mut first_sig: Option<usize> = None;
        for t in toks {
            match self.tokens[t].kind {
                TokenKind::Whitespace => {}
                TokenKind::LineComment { .. } | TokenKind::BlockComment { .. } => {
                    saw_comment = true
                }
                _ => {
                    if first_sig.is_none() {
                        first_sig = Some(t);
                    }
                }
            }
        }
        match first_sig {
            Some(t) if self.text_of(t) == "#" => LineClass::AttributeOnly,
            Some(_) => LineClass::Code,
            None if saw_comment => LineClass::CommentOnly,
            None => LineClass::Blank,
        }
    }

    /// First code-bearing line at or after `line`.
    fn next_code_line(&self, line: usize) -> Option<usize> {
        (line..=self.line_starts.len()).find(|&l| {
            matches!(
                self.line_class(l),
                LineClass::Code | LineClass::AttributeOnly
            )
        })
    }

    // ---- test regions ---------------------------------------------------

    /// Byte ranges covered by `#[test]` / `#[cfg(test)]` items.
    fn compute_test_regions(&self) -> Vec<Range<usize>> {
        let mut regions: Vec<Range<usize>> = Vec::new();
        let sig: Vec<usize> = self.significant().collect();
        let mut s = 0usize;
        while s < sig.len() {
            let i = sig[s];
            if self.text_of(i) == "#" {
                // Parse one attribute: `#[ ... ]` (outer only; `#![...]`
                // is a crate attribute and never marks a test item).
                if let Some((attr_text, after)) = self.parse_attr(&sig, s) {
                    if is_test_attr(&attr_text) {
                        // Skip any further attributes, then swallow the item.
                        let mut t = after;
                        while t < sig.len() && self.text_of(sig[t]) == "#" {
                            match self.parse_attr(&sig, t) {
                                Some((_, next)) => t = next,
                                None => break,
                            }
                        }
                        if let Some((end_offset, next)) = self.item_extent(&sig, t) {
                            regions.push(self.tokens[i].start..end_offset);
                            s = next;
                            continue;
                        }
                    }
                    s = after;
                    continue;
                }
            }
            s += 1;
        }
        regions
    }

    /// Parse the attribute starting at significant index `s` (whose
    /// token is `#`). Returns the attribute's source text (whitespace
    /// stripped) and the significant index just past the closing `]`.
    fn parse_attr(&self, sig: &[usize], s: usize) -> Option<(String, usize)> {
        let mut t = s + 1;
        // Optional `!` for inner attributes.
        let mut text = String::from("#");
        if t < sig.len() && self.text_of(sig[t]) == "!" {
            text.push('!');
            t += 1;
        }
        if t >= sig.len() || self.text_of(sig[t]) != "[" {
            return None;
        }
        let mut depth = 0i32;
        while t < sig.len() {
            let tok = self.text_of(sig[t]);
            text.push_str(tok);
            match tok {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((text, t + 1));
                    }
                }
                _ => {}
            }
            t += 1;
        }
        None
    }

    /// The extent of the item starting at significant index `s`:
    /// returns (byte offset one past its end, significant index after
    /// it). An item ends at the `}` matching its first open brace, or
    /// at a `;` with all brackets closed (e.g. `#[cfg(test)] mod t;`).
    fn item_extent(&self, sig: &[usize], s: usize) -> Option<(usize, usize)> {
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut brace = 0i32;
        let mut entered_brace = false;
        let mut t = s;
        while t < sig.len() {
            match self.text_of(sig[t]) {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" => {
                    brace += 1;
                    entered_brace = true;
                }
                "}" => {
                    brace -= 1;
                    if entered_brace && brace == 0 {
                        return Some((self.tokens[sig[t]].end, t + 1));
                    }
                }
                ";" if !entered_brace && paren == 0 && bracket == 0 && brace == 0 => {
                    return Some((self.tokens[sig[t]].end, t + 1));
                }
                _ => {}
            }
            t += 1;
        }
        None
    }

    // ---- allow annotations ----------------------------------------------

    fn parse_allows(&self) -> Vec<Allow> {
        let mut out = Vec::new();
        for (i, tok) in self.tokens.iter().enumerate() {
            // Doc comments never carry annotations: they are prose (and
            // the analyzer's own docs quote the grammar).
            let plain_comment = matches!(
                tok.kind,
                TokenKind::LineComment { doc: false } | TokenKind::BlockComment { doc: false }
            );
            if !plain_comment {
                continue;
            }
            let text = tok.text(&self.text);
            let Some(at) = text.find("analyze: allow(") else {
                continue;
            };
            let line = self.line_of(tok.start);
            let body = &text[at + "analyze: allow(".len()..];
            let (rule, has_reason) = parse_allow_body(body);
            // Standalone comment line → applies to the next code line;
            // trailing comment → applies to its own line.
            let target_line = match self.line_class(line) {
                LineClass::CommentOnly => self.next_code_line(line + 1).unwrap_or(line),
                _ => line,
            };
            let _ = i;
            out.push(Allow {
                rule,
                has_reason,
                line,
                target_line,
            });
        }
        out
    }

    /// Whether a finding of `rule` on `line` is suppressed by a
    /// well-formed allow annotation.
    pub fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|a| a.has_reason && a.rule == rule && a.target_line == line)
    }
}

/// Parse the inside of `allow( ... )`: rule name, then a required
/// `reason = "non-empty"`. The reason string may itself contain
/// parentheses; only the quotes delimit it.
fn parse_allow_body(body: &str) -> (String, bool) {
    let rule_end = body.find([',', ')']).unwrap_or(body.len());
    let rule = body[..rule_end].trim().to_string();
    let has_reason = if body[rule_end..].starts_with(',') {
        let rest = body[rule_end + 1..].trim_start();
        match rest.strip_prefix("reason") {
            Some(tail) => match tail.trim_start().strip_prefix('=') {
                Some(v) => {
                    let v = v.trim_start();
                    // Non-empty double-quoted string.
                    v.strip_prefix('"')
                        .and_then(|q| q.find('"'))
                        .is_some_and(|len| len > 0)
                }
                None => false,
            },
            None => false,
        }
    } else {
        false
    };
    (rule, has_reason)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineClass {
    Blank,
    CommentOnly,
    AttributeOnly,
    Code,
}

/// A function's extent within one file, for rules scoped to specific
/// functions and for the per-function lock analysis.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Byte range of the body (from `{` to its matching `}`).
    pub body: Range<usize>,
    /// Significant-token index range of the body, inclusive of braces.
    pub body_tokens: Range<usize>,
}

/// Extract every `fn name ... { ... }` span in the file (trait-method
/// declarations without bodies are skipped). Nested functions yield
/// nested spans; [`enclosing_fn`] picks the innermost.
pub fn fn_spans(file: &SourceFile) -> Vec<FnSpan> {
    let sig: Vec<usize> = file.significant().collect();
    let mut out = Vec::new();
    let mut s = 0usize;
    while s < sig.len() {
        if file.is_ident(sig[s], "fn") && s + 1 < sig.len() {
            let name = file.text_of(sig[s + 1]).to_string();
            // Find the body's `{`, skipping the signature. A `;` first
            // means a bodyless declaration.
            let mut t = s + 2;
            let mut angle = 0i32;
            let mut body_open: Option<usize> = None;
            while t < sig.len() {
                match file.text_of(sig[t]) {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    ";" if angle <= 0 => break,
                    "{" => {
                        body_open = Some(t);
                        break;
                    }
                    _ => {}
                }
                t += 1;
            }
            if let Some(open) = body_open {
                let mut depth = 0i32;
                let mut u = open;
                while u < sig.len() {
                    match file.text_of(sig[u]) {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                out.push(FnSpan {
                                    name,
                                    body: file.tokens[sig[open]].start..file.tokens[sig[u]].end,
                                    body_tokens: open..u + 1,
                                });
                                break;
                            }
                        }
                        _ => {}
                    }
                    u += 1;
                }
            }
        }
        s += 1;
    }
    out
}

/// The innermost function span containing `offset`, if any.
pub fn enclosing_fn(spans: &[FnSpan], offset: usize) -> Option<&FnSpan> {
    spans
        .iter()
        .filter(|f| f.body.start <= offset && offset < f.body.end)
        .min_by_key(|f| f.body.end - f.body.start)
}

fn is_test_attr(attr: &str) -> bool {
    attr == "#[test]" || attr.starts_with("#[cfg(test") || attr.starts_with("#[cfg(all(test")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(src: &str) -> SourceFile {
        SourceFile::new(PathBuf::from("mem.rs"), "mem.rs".into(), src.to_string())
    }

    #[test]
    fn cfg_test_module_is_a_test_region() {
        let src = "fn prod() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); }\n\
                   }\n\
                   fn prod2() {}\n";
        let f = sf(src);
        let prod = src.find("x.unwrap").unwrap();
        let test = src.find("y.unwrap").unwrap();
        let prod2 = src.find("prod2").unwrap();
        assert!(!f.is_test_code(prod));
        assert!(f.is_test_code(test));
        assert!(!f.is_test_code(prod2));
    }

    #[test]
    fn test_attr_with_more_attrs_between() {
        let src = "#[test]\n#[ignore]\nfn t() { boom.unwrap(); }\nfn p() {}\n";
        let f = sf(src);
        assert!(f.is_test_code(src.find("boom").unwrap()));
        assert!(!f.is_test_code(src.find("fn p").unwrap()));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn ships() { x.unwrap(); }\n";
        let f = sf(src);
        assert!(!f.is_test_code(src.find("x.unwrap").unwrap()));
    }

    #[test]
    fn cfg_test_semicolon_item() {
        let src = "#[cfg(test)]\nmod tests;\nfn p() {}\n";
        let f = sf(src);
        assert!(f.is_test_code(src.find("mod tests").unwrap()));
        assert!(!f.is_test_code(src.find("fn p").unwrap()));
    }

    #[test]
    fn tests_dir_files_are_all_test_code() {
        let f = SourceFile::new(
            PathBuf::from("crates/x/tests/flow.rs"),
            "crates/x/tests/flow.rs".into(),
            "fn anything() { x.unwrap(); }".into(),
        );
        assert!(f.is_test_code(5));
    }

    #[test]
    fn allow_parsing_trailing_and_standalone() {
        let src = "\
let a = x.unwrap(); // analyze: allow(panic_freedom, reason = \"startup only\")\n\
// analyze: allow(lock_order, reason = \"established order: a then b\")\n\
let b = y.lock();\n\
// analyze: allow(panic_freedom)\n\
let c = z.unwrap();\n";
        let f = sf(src);
        assert!(f.is_allowed("panic_freedom", 1));
        assert!(f.is_allowed("lock_order", 3));
        // Missing reason → not a valid suppression.
        assert!(!f.is_allowed("panic_freedom", 5));
        let bad = f.allows.iter().find(|a| !a.has_reason).unwrap();
        assert_eq!(bad.line, 4);
    }

    #[test]
    fn attached_comments_walks_contiguous_block_and_attrs() {
        let src = "\
// Relaxed: counter only.\n\
// Second line.\n\
#[inline]\n\
fn f() {}\n";
        let f = sf(src);
        let c = f.attached_comments(4);
        assert!(c.contains("counter only"));
        assert!(c.contains("Second line"));
        assert!(f.attached_comments(1).contains("counter only"));
    }

    #[test]
    fn unsafe_group_comment_lookup() {
        let src = "\
// SAFETY: the protocol makes this race free.\n\
unsafe impl Send for X {}\n\
unsafe impl Sync for X {}\n";
        let f = sf(src);
        assert!(f.attached_comments_over_unsafe_group(3).contains("SAFETY:"));
        // The plain walk stops at the Send impl.
        assert!(!f.attached_comments(3).contains("SAFETY:"));
    }

    #[test]
    fn fn_spans_and_enclosing() {
        let src = "\
fn outer() {\n\
    let x = 1;\n\
    fn inner() { nested(); }\n\
    done();\n\
}\n\
fn sig_only<T: Fn() -> u8>(f: T) -> u8 { f() }\n\
trait T { fn decl(&self); }\n";
        let f = sf(src);
        let spans = fn_spans(&f);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "sig_only"]);
        let at = src.find("nested").unwrap();
        assert_eq!(enclosing_fn(&spans, at).unwrap().name, "inner");
        let at = src.find("done").unwrap();
        assert_eq!(enclosing_fn(&spans, at).unwrap().name, "outer");
    }
}
