//! The rule engine: each rule takes a [`SourceFile`] (plus, for the
//! lock-order rule, the whole set) and emits [`Finding`]s. A shared
//! pass also validates the `analyze: allow(...)` annotations
//! themselves — a suppression without a reason is a finding.

pub mod atomics;
pub mod blocking;
pub mod locks;
pub mod panics;
pub mod unsafety;

use crate::report::Finding;
use crate::source::{SourceFile, RULES};

/// Run the per-file rules over one file.
pub fn run_file_rules(file: &SourceFile, findings: &mut Vec<Finding>) {
    check_allows(file, findings);
    panics::check(file, findings);
    atomics::check(file, findings);
    unsafety::check(file, findings);
    blocking::check(file, findings);
}

/// Validate the allow annotations: the rule name must be known and a
/// non-empty reason is mandatory.
fn check_allows(file: &SourceFile, findings: &mut Vec<Finding>) {
    for a in &file.allows {
        if !RULES.contains(&a.rule.as_str()) {
            findings.push(Finding {
                rule: "allow_syntax",
                path: file.rel.clone(),
                line: a.line,
                message: format!(
                    "unknown rule `{}` in analyze: allow(...); known rules: {}",
                    a.rule,
                    RULES.join(", ")
                ),
            });
        } else if !a.has_reason {
            findings.push(Finding {
                rule: "allow_syntax",
                path: file.rel.clone(),
                line: a.line,
                message: format!(
                    "analyze: allow({}) is missing the required reason = \"...\"",
                    a.rule
                ),
            });
        }
    }
}
