//! Rule `lock_order`: extract every `.lock()` / `.read()` / `.write()`
//! acquisition (empty argument lists only, so `io::Read::read(&mut
//! buf)` never matches), keyed by receiver field name, model how long
//! each guard is held, add cross-function edges via a call-graph
//! fixpoint, and fail on cycles in the resulting lock-order graph.
//!
//! ## Guard-extent model (approximation, documented)
//!
//! * `let g = x.lock()...;` — held to the end of the enclosing block
//!   (or an explicit `drop(g)`).
//! * `if let` / `while let` / `match` scrutinee — held through the
//!   statement's block *including* the `else` chain (Rust's temporary
//!   lifetime for scrutinees), released after it.
//! * any other expression statement — held to the end of the statement.
//!
//! Receivers are keyed by field *name* only; same-named fields in
//! different types merge. That over-approximates the graph (safe
//! direction: may report a cycle that spans two unrelated types), and
//! a false merge can be silenced with `// analyze: allow(lock_order,
//! reason = "...")` on the reported line.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::source::{fn_spans, SourceFile};

const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "let", "for", "loop", "return", "fn", "move", "mut", "ref",
    "in", "as", "break", "continue", "unsafe", "async", "await", "dyn", "impl", "pub", "where",
    "struct", "enum", "use", "mod", "const", "static", "type", "true", "false", "self", "Self",
    "super", "crate", "Some", "Ok", "Err", "None", "Box", "Vec",
];

/// Callee names excluded from cross-function resolution. The call graph
/// is keyed by bare name, and these collide with std methods on every
/// other type (`Vec::push`, `HashMap::insert`, ...) — resolving them
/// would merge unrelated code into the lock graph and report phantom
/// cycles. The cost is a missed edge through a workspace function that
/// happens to share one of these names; that trade (precision over an
/// already-approximate recall) is deliberate and documented in the
/// README.
const COMMON_CALLEES: &[&str] = &[
    "new",
    "len",
    "is_empty",
    "insert",
    "push",
    "pop",
    "get",
    "get_mut",
    "remove",
    "clear",
    "contains",
    "contains_key",
    "entry",
    "iter",
    "into_iter",
    "next",
    "clone",
    "drop",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "from",
    "into",
    "default",
    "send",
    "recv",
    "try_recv",
    "extend",
    "drain",
    "take",
    "replace",
    "min",
    "max",
];

/// One observed lock-order edge `from` → `to`, with its evidence.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    path: String,
    line: usize,
    via: String,
}

/// A blocking call made while guards were live (see
/// [`crate::rules::blocking`]).
#[derive(Debug)]
pub struct BlockingSite {
    /// The blocking method or function, e.g. `write_all`.
    pub call: String,
    /// Keys of the guards live at the call.
    pub held: Vec<String>,
    /// 1-based line of the call.
    pub line: usize,
}

/// Calls that can block the thread indefinitely. `read`/`write` only
/// count with arguments (empty parens are `RwLock` acquisitions, handled
/// first); `join`/`recv`/`accept` only with empty parens
/// (`[T]::join(sep)` and `Path::join(p)` do not block).
const BLOCKING_WITH_ARGS: &[&str] = &["read", "write", "write_all", "sleep"];
const BLOCKING_NO_ARGS: &[&str] = &["accept", "recv", "join"];
/// `Condvar` waits: exempt when their guard argument is the only live
/// guard — the wait releases it while blocked.
const CONDVAR_WAITS: &[&str] = &["wait", "wait_timeout", "wait_while", "wait_timeout_while"];

#[derive(Debug, Default)]
struct FnFacts {
    /// Locks acquired directly in the body.
    direct: BTreeSet<String>,
    /// Names of functions called from the body.
    calls: BTreeSet<String>,
    /// Call sites made while at least one guard was held.
    held_calls: Vec<(String, Vec<String>, String, usize)>, // callee, held, path, line
    /// Direct lexical nesting edges.
    edges: Vec<Edge>,
    /// Blocking calls made while at least one guard was held.
    blocking: Vec<BlockingSite>,
}

enum HeldKind {
    /// `let`-bound guard: held until brace depth drops below `depth`.
    Let { var: Option<String> },
    /// Scrutinee guard: held until the statement's block chain closes
    /// back to `depth` with no trailing `else`.
    Cond,
    /// Plain statement temporary: held until `;` at `depth`.
    Stmt,
}

struct Held {
    key: String,
    depth: i32,
    kind: HeldKind,
}

/// Run the lock-order analysis over the whole file set.
pub fn check(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let mut facts: BTreeMap<String, FnFacts> = BTreeMap::new();
    let mut all_edges: Vec<Edge> = Vec::new();

    for file in files {
        if file.is_test_file() {
            continue;
        }
        let spans = fn_spans(file);
        for span in &spans {
            if file.is_test_code(span.body.start) {
                continue;
            }
            let f = scan_fn(file, span.body_tokens.clone());
            all_edges.extend(f.edges.iter().cloned());
            let entry = facts.entry(span.name.clone()).or_default();
            entry.direct.extend(f.direct);
            entry.calls.extend(f.calls);
            entry.held_calls.extend(f.held_calls);
        }
    }

    // Fixpoint: transitive lock set per function name.
    let mut locks: BTreeMap<String, BTreeSet<String>> = facts
        .iter()
        .map(|(name, f)| (name.clone(), f.direct.clone()))
        .collect();
    loop {
        let mut changed = false;
        for (name, f) in &facts {
            let mut acc = locks[name].clone();
            for callee in &f.calls {
                if let Some(set) = locks.get(callee) {
                    for k in set {
                        if acc.insert(k.clone()) {
                            changed = true;
                        }
                    }
                }
            }
            locks.insert(name.clone(), acc);
        }
        if !changed {
            break;
        }
    }

    // Cross-function edges: guard held across a call that (transitively)
    // acquires other locks.
    for f in facts.values() {
        for (callee, held, path, line) in &f.held_calls {
            if let Some(set) = locks.get(callee) {
                for to in set {
                    for from in held {
                        all_edges.push(Edge {
                            from: from.clone(),
                            to: to.clone(),
                            path: path.clone(),
                            line: *line,
                            via: format!(" via call to `{}`", callee),
                        });
                    }
                }
            }
        }
    }

    // Deduplicate: keep the lexicographically first example per (from, to).
    all_edges.sort_by(|a, b| {
        (&a.from, &a.to, &a.path, a.line, &a.via).cmp(&(&b.from, &b.to, &b.path, b.line, &b.via))
    });
    let mut edge_map: BTreeMap<(String, String), Edge> = BTreeMap::new();
    for e in all_edges {
        edge_map.entry((e.from.clone(), e.to.clone())).or_insert(e);
    }

    report_cycles(files, &edge_map, findings);
}

fn report_cycles(
    files: &[SourceFile],
    edge_map: &BTreeMap<(String, String), Edge>,
    findings: &mut Vec<Finding>,
) {
    let allowed = |path: &str, line: usize| {
        files
            .iter()
            .find(|f| f.rel == path)
            .is_some_and(|f| f.is_allowed("lock_order", line))
    };

    // Self-loops first (nested acquisition of the same key).
    for ((from, to), e) in edge_map {
        if from == to && !allowed(&e.path, e.line) {
            findings.push(Finding {
                rule: "lock_order",
                path: e.path.clone(),
                line: e.line,
                message: format!(
                    "`{}` acquired while already held{} (self-deadlock risk)",
                    from, e.via
                ),
            });
        }
    }

    // Strongly connected components over the remaining graph.
    let nodes: BTreeSet<&String> = edge_map.keys().flat_map(|(a, b)| [a, b]).collect();
    let nodes: Vec<&String> = nodes.into_iter().collect();
    let index_of: BTreeMap<&String, usize> =
        nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (from, to) in edge_map.keys() {
        if from != to {
            adj[index_of[from]].push(index_of[to]);
        }
    }
    for scc in tarjan(&adj) {
        if scc.len() < 2 {
            continue;
        }
        let members: BTreeSet<usize> = scc.iter().copied().collect();
        let mut names: Vec<&str> = scc.iter().map(|&i| nodes[i].as_str()).collect();
        names.sort_unstable();
        // Evidence: every edge internal to the SCC, sorted.
        let mut evidence: Vec<&Edge> = edge_map
            .iter()
            .filter(|((f, t), _)| {
                f != t && members.contains(&index_of[f]) && members.contains(&index_of[t])
            })
            .map(|(_, e)| e)
            .collect();
        evidence.sort_by_key(|e| (&e.path, e.line));
        if evidence.iter().any(|e| allowed(&e.path, e.line)) {
            continue;
        }
        let detail = evidence
            .iter()
            .map(|e| {
                format!(
                    "`{}` -> `{}` at {}:{}{}",
                    e.from, e.to, e.path, e.line, e.via
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        let first = evidence[0];
        findings.push(Finding {
            rule: "lock_order",
            path: first.path.clone(),
            line: first.line,
            message: format!(
                "lock-order cycle among {{{}}}: {}",
                names.join(", "),
                detail
            ),
        });
    }
}

/// Iterative Tarjan SCC; returns components (each a list of node ids).
fn tarjan(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut out = Vec::new();
    // Explicit DFS stack: (node, next-child-offset).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut ci)) = dfs.last_mut() {
            if *ci == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    dfs.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                dfs.pop();
                if let Some(&mut (p, _)) = dfs.last_mut() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().unwrap_or(v);
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    out.push(comp);
                }
            }
        }
    }
    out
}

/// The blocking calls in one function body made while a guard is live,
/// under the same guard-extent model as the lock-order graph.
pub fn blocking_sites(file: &SourceFile, body_tokens: std::ops::Range<usize>) -> Vec<BlockingSite> {
    scan_fn(file, body_tokens).blocking
}

/// Scan one function body for acquisitions, calls, nesting edges and
/// blocking calls under a guard.
fn scan_fn(file: &SourceFile, body_tokens: std::ops::Range<usize>) -> FnFacts {
    let sig: Vec<usize> = file.significant().collect();
    let toks: Vec<usize> = sig[body_tokens.start..body_tokens.end].to_vec();
    let mut facts = FnFacts::default();
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i32;
    let mut stmt_first: Option<String> = None;
    let mut let_var: Option<String> = None;

    let text_at = |t: usize| file.text_of(toks[t]);
    let mut t = 0usize;
    while t < toks.len() {
        let tok = text_at(t);
        match tok {
            "{" => {
                depth += 1;
                stmt_first = None;
                let_var = None;
            }
            "}" => {
                depth -= 1;
                let next_is_else = t + 1 < toks.len() && text_at(t + 1) == "else";
                held.retain(|h| match h.kind {
                    HeldKind::Let { .. } => depth >= h.depth,
                    HeldKind::Cond => depth > h.depth || (depth == h.depth && next_is_else),
                    HeldKind::Stmt => depth >= h.depth,
                });
                stmt_first = None;
                let_var = None;
            }
            ";" => {
                held.retain(|h| !(matches!(h.kind, HeldKind::Stmt) && h.depth == depth));
                stmt_first = None;
                let_var = None;
            }
            _ => {
                if stmt_first.is_none() {
                    stmt_first = Some(tok.to_string());
                }
                if tok == "let" && t + 1 < toks.len() && let_var.is_none() {
                    // `let [mut] name` — capture the binding name for drop().
                    let mut v = t + 1;
                    if text_at(v) == "mut" {
                        v += 1;
                    }
                    if v < toks.len() && file.tokens[toks[v]].kind == TokenKind::Ident {
                        let_var = Some(text_at(v).to_string());
                    }
                }
                // drop(var) releases a let-bound guard.
                if tok == "drop"
                    && t + 3 < toks.len()
                    && text_at(t + 1) == "("
                    && text_at(t + 3) == ")"
                {
                    let var = text_at(t + 2).to_string();
                    held.retain(
                        |h| !matches!(&h.kind, HeldKind::Let { var: Some(v) } if *v == var),
                    );
                }
                // Acquisition: `.lock()` / `.read()` / `.write()` with
                // EMPTY parens (io::Read/Write take arguments).
                let is_acq = LOCK_METHODS.contains(&tok)
                    && t >= 1
                    && text_at(t - 1) == "."
                    && t + 2 < toks.len()
                    && text_at(t + 1) == "("
                    && text_at(t + 2) == ")";
                if is_acq {
                    let key = receiver_key(file, &toks, t);
                    if key == "?" {
                        // Unkeyable receiver: skipping it is safer than
                        // merging unrelated locks into one node.
                        t += 3;
                        continue;
                    }
                    let line = file.line_of(file.tokens[toks[t]].start);
                    for h in &held {
                        facts.edges.push(Edge {
                            from: h.key.clone(),
                            to: key.clone(),
                            path: file.rel.clone(),
                            line,
                            via: String::new(),
                        });
                    }
                    facts.direct.insert(key.clone());
                    let kind = match stmt_first.as_deref() {
                        Some("let") => HeldKind::Let {
                            var: let_var.clone(),
                        },
                        Some("if") | Some("while") | Some("match") => HeldKind::Cond,
                        _ => HeldKind::Stmt,
                    };
                    held.push(Held { key, depth, kind });
                    t += 3; // past `(` `)`
                    continue;
                }
                if !held.is_empty() {
                    if let Some(site) = blocking_call(file, &toks, t, &held) {
                        facts.blocking.push(site);
                    }
                }
                // Call: ident followed by `(` (macros have `!` between,
                // so they never match).
                if file.tokens[toks[t]].kind == TokenKind::Ident
                    && !KEYWORDS.contains(&tok)
                    && !COMMON_CALLEES.contains(&tok)
                    && t + 1 < toks.len()
                    && text_at(t + 1) == "("
                {
                    facts.calls.insert(tok.to_string());
                    if !held.is_empty() {
                        let line = file.line_of(file.tokens[toks[t]].start);
                        facts.held_calls.push((
                            tok.to_string(),
                            held.iter().map(|h| h.key.clone()).collect(),
                            file.rel.clone(),
                            line,
                        ));
                    }
                }
            }
        }
        t += 1;
    }
    facts
}

/// The blocking call at `toks[t]`, if it is one and some guard other
/// than a `Condvar` wait's own stays live across it.
fn blocking_call(
    file: &SourceFile,
    toks: &[usize],
    t: usize,
    held: &[Held],
) -> Option<BlockingSite> {
    let text_at = |u: usize| file.text_of(toks[u]);
    let tok = text_at(t);
    let called = t + 1 < toks.len() && text_at(t + 1) == "(";
    // A method call or a path call (`::` lexes as two `:`).
    let via = t >= 1 && matches!(text_at(t - 1), "." | ":");
    if !called || !via {
        return None;
    }
    let empty_args = t + 2 < toks.len() && text_at(t + 2) == ")";
    let mut live: Vec<String> = held.iter().map(|h| h.key.clone()).collect();
    if CONDVAR_WAITS.contains(&tok) {
        // `cv.wait(guard)`: the wait releases `guard` while it blocks,
        // so only the other live guards count.
        let arg = (t + 2 < toks.len()).then(|| text_at(t + 2));
        if let Some(own) = held.iter().position(
            |h| matches!(&h.kind, HeldKind::Let { var: Some(v) } if Some(v.as_str()) == arg),
        ) {
            live.remove(own);
        }
        if live.is_empty() {
            return None;
        }
    } else if !(BLOCKING_WITH_ARGS.contains(&tok) && !empty_args
        || BLOCKING_NO_ARGS.contains(&tok) && empty_args)
    {
        return None;
    }
    Some(BlockingSite {
        call: tok.to_string(),
        held: live,
        line: file.line_of(file.tokens[toks[t]].start),
    })
}

/// Receiver key for the acquisition at `toks[t]` (the method ident):
/// the field/variable before the dot, or `name()` for a method-call
/// receiver like `self.shard(k).lock()`.
fn receiver_key(file: &SourceFile, toks: &[usize], t: usize) -> String {
    if t < 2 {
        return "?".to_string();
    }
    let prev = file.text_of(toks[t - 2]);
    if prev == ")" {
        // Walk back over the argument list to the method name.
        let mut depth = 0i32;
        let mut u = t - 2;
        loop {
            match file.text_of(toks[u]) {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        if u >= 1 && file.tokens[toks[u - 1]].kind == TokenKind::Ident {
                            return format!("{}()", file.text_of(toks[u - 1]));
                        }
                        return "?".to_string();
                    }
                }
                _ => {}
            }
            if u == 0 {
                return "?".to_string();
            }
            u -= 1;
        }
    }
    if file.tokens[toks[t - 2]].kind == TokenKind::Ident {
        return prev.to_string();
    }
    "?".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(rel, src)| SourceFile::new(PathBuf::from(rel), rel.to_string(), src.to_string()))
            .collect();
        let mut out = Vec::new();
        check(&files, &mut out);
        out
    }

    #[test]
    fn direct_cycle_detected() {
        let src = "\
fn ab(&self) {\n\
    let a = self.alpha.lock();\n\
    let b = self.beta.lock();\n\
}\n\
fn ba(&self) {\n\
    let b = self.beta.lock();\n\
    let a = self.alpha.lock();\n\
}\n";
        let out = run(&[("x.rs", src)]);
        assert_eq!(out.len(), 1, "{:?}", out);
        assert!(out[0].message.contains("cycle"));
        assert!(out[0].message.contains("alpha"));
        assert!(out[0].message.contains("beta"));
    }

    #[test]
    fn sequential_acquisitions_are_fine() {
        let src = "\
fn f(&self) {\n\
    { let a = self.alpha.lock(); }\n\
    { let b = self.beta.lock(); }\n\
}\n\
fn g(&self) {\n\
    { let b = self.beta.lock(); }\n\
    { let a = self.alpha.lock(); }\n\
}\n";
        assert!(run(&[("x.rs", src)]).is_empty());
    }

    #[test]
    fn if_let_scrutinee_releases_after_else_chain() {
        // The read guard in the scrutinee must NOT be considered held
        // at the later write() — no self-edge.
        let src = "\
fn get_or_create(&self) {\n\
    if let Some(t) = self.tenants.read().get(id) {\n\
        return t;\n\
    } else {\n\
        noop();\n\
    }\n\
    let mut w = self.tenants.write();\n\
}\n";
        let out = run(&[("x.rs", src)]);
        assert!(out.is_empty(), "{:?}", out);
    }

    #[test]
    fn nested_same_key_is_a_self_deadlock() {
        let src = "\
fn f(&self) {\n\
    let a = self.state.lock();\n\
    let b = self.state.lock();\n\
}\n";
        let out = run(&[("x.rs", src)]);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("already held"));
    }

    #[test]
    fn cross_function_cycle_via_call() {
        let src = "\
fn outer(&self) {\n\
    let a = self.alpha.lock();\n\
    helper(self);\n\
}\n\
fn helper(&self) {\n\
    let b = self.beta.lock();\n\
}\n\
fn other(&self) {\n\
    let b = self.beta.lock();\n\
    let a = self.alpha.lock();\n\
}\n";
        let out = run(&[("x.rs", src)]);
        assert_eq!(out.len(), 1, "{:?}", out);
        assert!(out[0].message.contains("cycle"));
    }

    #[test]
    fn drop_releases_let_guard() {
        let src = "\
fn f(&self) {\n\
    let a = self.alpha.lock();\n\
    drop(a);\n\
    let b = self.beta.lock();\n\
}\n\
fn g(&self) {\n\
    let b = self.beta.lock();\n\
    drop(b);\n\
    let a = self.alpha.lock();\n\
}\n";
        assert!(run(&[("x.rs", src)]).is_empty());
    }

    #[test]
    fn io_read_write_with_args_ignored() {
        let src = "\
fn f(&mut self) {\n\
    let g = self.state.lock();\n\
    self.stream.read(&mut buf);\n\
    self.stream.write(&buf);\n\
}\n";
        assert!(run(&[("x.rs", src)]).is_empty());
    }

    #[test]
    fn allow_suppresses_cycle() {
        let src = "\
fn ab(&self) {\n\
    let a = self.alpha.lock();\n\
    // analyze: allow(lock_order, reason = \"false merge: different registries\")\n\
    let b = self.beta.lock();\n\
}\n\
fn ba(&self) {\n\
    let b = self.beta.lock();\n\
    let a = self.alpha.lock();\n\
}\n";
        assert!(run(&[("x.rs", src)]).is_empty());
    }
}
