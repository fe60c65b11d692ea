//! Rule `blocking_under_lock`: no call that can block indefinitely —
//! socket or file `read`/`write`/`write_all`, `accept`, channel
//! `recv()`, thread `join()`, `sleep` — while a lock guard is live. A
//! blocked holder stalls every thread that wants the lock, and a peer
//! that never reads can then wedge the whole server. Guard extents are
//! the lock-order rule's model (see [`crate::rules::locks`]); a
//! `Condvar::wait*` on the held guard is exempt, because the wait
//! releases that guard while it blocks.
//!
//! Test code is exempt, as for the lock-order rule.

use std::collections::BTreeSet;

use crate::report::Finding;
use crate::rules::locks::blocking_sites;
use crate::source::{fn_spans, SourceFile};

pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.is_test_file() {
        return;
    }
    // Nested functions are scanned both alone and inside their parent:
    // report each call site once.
    let mut seen = BTreeSet::new();
    for span in fn_spans(file) {
        if file.is_test_code(span.body.start) {
            continue;
        }
        for site in blocking_sites(file, span.body_tokens.clone()) {
            if file.is_allowed("blocking_under_lock", site.line)
                || !seen.insert((site.line, site.call.clone()))
            {
                continue;
            }
            findings.push(Finding {
                rule: "blocking_under_lock",
                path: file.rel.clone(),
                line: site.line,
                message: format!(
                    "`{}` can block while `{}` is held; release the guard first",
                    site.call,
                    site.held.join("`, `")
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::new(PathBuf::from("x.rs"), "x.rs".into(), src.into());
        let mut out = Vec::new();
        check(&file, &mut out);
        out
    }

    #[test]
    fn io_under_a_let_guard_is_flagged() {
        let src = "\
fn f(&self) {\n\
    let g = self.state.lock();\n\
    self.stream.write_all(&g);\n\
}\n";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("`write_all`"));
        assert!(out[0].message.contains("`state`"));
    }

    #[test]
    fn io_after_the_guard_is_released_is_fine() {
        let src = "\
fn f(&self) {\n\
    {\n\
        let g = self.state.lock();\n\
        encode(&g, &mut buf);\n\
    }\n\
    self.stream.write_all(&buf);\n\
    let h = self.state.lock();\n\
    drop(h);\n\
    std::thread::sleep(d);\n\
}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn condvar_wait_on_the_held_guard_is_exempt() {
        let src = "\
fn f(&self) {\n\
    let mut g = self.state.lock();\n\
    while g.is_empty() {\n\
        g = self.cv.wait(g);\n\
    }\n\
}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn condvar_wait_with_a_second_guard_live_is_flagged() {
        let src = "\
fn f(&self) {\n\
    let other = self.other.lock();\n\
    let mut g = self.state.lock();\n\
    g = self.cv.wait(g);\n\
}\n";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`other`"));
        assert!(!out[0].message.contains("`state`"));
    }

    #[test]
    fn non_blocking_namesakes_are_ignored() {
        // Acquisitions (`read()`), string joins and path joins share
        // names with blocking calls but do not block.
        let src = "\
fn f(&self) {\n\
    let g = self.state.lock();\n\
    let r = self.routes.read();\n\
    let s = names.join(\", \");\n\
    let p = dir.join(name);\n\
}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn scrutinee_and_statement_guards_count() {
        let src = "\
fn f(&self) {\n\
    if let Ok(g) = self.state.lock() {\n\
        handle.join();\n\
    }\n\
    self.state.lock().push(rx.recv());\n\
    let g = self.state.lock();\n\
    std::thread::sleep(d);\n\
}\n";
        let out = run(src);
        assert_eq!(
            out.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![3, 5, 7],
            "{out:?}"
        );
    }

    #[test]
    fn test_code_and_allows_are_exempt() {
        let src = "\
fn f(&self) {\n\
    let g = self.state.lock();\n\
    // analyze: allow(blocking_under_lock, reason = \"bounded local pipe\")\n\
    self.pipe.write_all(&g);\n\
}\n\
#[cfg(test)]\n\
mod tests {\n\
    fn t() {\n\
        let g = STATE.lock();\n\
        handle.join();\n\
    }\n\
}\n";
        assert!(run(src).is_empty());
    }
}
