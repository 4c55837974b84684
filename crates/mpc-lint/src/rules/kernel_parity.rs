//! Rule `kernel-parity`: the three SIMD kernel tiers stay op-for-op
//! interchangeable.
//!
//! `KernelKind` dispatches each op to `portable`, `sse2`, or `avx2`
//! by tier; the bit-identity contract only means anything if every op
//! *exists* in every tier with the same shape. This rule compares the
//! visible (`pub`/`pub(crate)`) functions of the three tier files:
//! any op defined in at least two tiers must exist in all three with
//! token-identical signatures (modulo the `unsafe` that
//! `#[target_feature]` forces on the intrinsic tiers, which sits
//! outside the `fn … (` span compared here). Private helpers
//! (`m61_add_lanes`, carry propagation) are tier-local by design and
//! exempt. Additionally, every visible SSE2/AVX2 op must *name its
//! scalar reference* — `portable::<op>` in the body (tail delegation)
//! or `portable::<op>` / `KernelKind::<op>` in its doc comment — so
//! the behavioral contract is navigable from the intrinsics. This is
//! the static twin of the tier bit-identity property tests.

use crate::graph::Workspace;
use crate::report::Finding;
use crate::rules::find_seq;
use crate::RULE_KERNEL_PARITY;

/// The three tier files, by basename, in reporting order.
const TIERS: &[&str] = &["portable.rs", "sse2.rs", "avx2.rs"];

/// The kernel directory all three tiers live in.
const KERNELS_DIR: &str = "crates/sketch/src/kernels/";

/// Joined token text of a signature range, skipping the `fn` keyword
/// and the name (so `unsafe`/`pub(crate)` prefixes are outside, and
/// parameter lists + return types are compared exactly).
fn sig_text(ws: &Workspace, f: usize) -> String {
    let node = &ws.fns[f];
    let tokens = &ws.files[node.file].lexed.tokens;
    let span = &tokens[node.sig.0 + 2..node.sig.1];
    let mut texts: Vec<String> = Vec::with_capacity(span.len());
    for (k, t) in span.iter().enumerate() {
        // Rustfmt's trailing comma before `)` is layout, not shape —
        // a one-line and a broken-across-lines list compare equal.
        if t.is_punct(',') && span.get(k + 1).is_some_and(|n| n.is_punct(')')) {
            continue;
        }
        texts.push(match &t.kind {
            crate::lexer::TokenKind::Ident(s) => s.clone(),
            crate::lexer::TokenKind::Punct(c) => c.to_string(),
            crate::lexer::TokenKind::Literal => "<lit>".to_string(),
        });
    }
    texts.join(" ")
}

/// Whether the SSE2/AVX2 op at fn index `f` names its scalar
/// reference: `portable::<name>` in the body, or `portable::<name>` /
/// `KernelKind::<name>` in a comment within the 14 lines above the
/// `fn` (its doc block).
fn names_scalar_reference(ws: &Workspace, f: usize) -> bool {
    let node = &ws.fns[f];
    let file = &ws.files[node.file];
    let tokens = &file.lexed.tokens;
    if !find_seq(tokens, node.body, &["portable", ":", ":", &node.name]).is_empty() {
        return true;
    }
    let scalar_ref = format!("portable::{}", node.name);
    let dispatch_ref = format!("KernelKind::{}", node.name);
    file.lexed.line_comments.iter().any(|(line, text)| {
        *line < node.line
            && node.line - *line <= 14
            && (text.contains(&scalar_ref) || text.contains(&dispatch_ref))
    })
}

/// Compares the tier files present in the workspace.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    // tier index (0..3) → file index, where present.
    let mut tier_files: [Option<usize>; 3] = [None; 3];
    for (fi, file) in ws.files.iter().enumerate() {
        if let Some(base) = file.rel_path.strip_prefix(KERNELS_DIR) {
            if let Some(t) = TIERS.iter().position(|n| *n == base) {
                tier_files[t] = Some(fi);
            }
        }
    }
    let present: Vec<usize> = (0..3).filter(|&t| tier_files[t].is_some()).collect();
    if present.len() < 2 {
        return Vec::new(); // nothing to compare (single-file lints)
    }

    // Visible ops per tier: name → fn index.
    let mut ops: Vec<Vec<(String, usize)>> = vec![Vec::new(); 3];
    for &t in &present {
        let fi = tier_files[t].unwrap();
        for (i, node) in ws.fns.iter().enumerate() {
            if node.file == fi && !node.in_test && node.visible {
                ops[t].push((node.name.clone(), i));
            }
        }
    }

    let mut out = Vec::new();
    // Every op visible in ≥ 2 tiers must exist in all present tiers
    // with the same signature.
    let mut all_names: Vec<&str> = Vec::new();
    for &t in &present {
        for (n, _) in &ops[t] {
            if !all_names.contains(&n.as_str()) {
                all_names.push(n);
            }
        }
    }
    for name in all_names {
        let holders: Vec<usize> = present
            .iter()
            .copied()
            .filter(|&t| ops[t].iter().any(|(n, _)| n == name))
            .collect();
        if holders.len() < 2 {
            continue; // tier-local helper (e.g. portable::m61_add_raw)
        }
        for &t in &present {
            let Some(&(_, f0)) = ops[holders[0]].iter().find(|(n, _)| n == name) else {
                continue;
            };
            match ops[t].iter().find(|(n, _)| n == name) {
                None => out.push(Finding {
                    rule: RULE_KERNEL_PARITY,
                    file: ws.files[tier_files[t].unwrap()].rel_path.clone(),
                    line: 1,
                    message: format!(
                        "kernel op `{name}` exists in {} but not in this tier — every \
                         dispatched op must be implemented at all tiers (bit-identity \
                         contract)",
                        TIERS[holders[0]],
                    ),
                }),
                Some(&(_, f)) => {
                    if sig_text(ws, f) != sig_text(ws, f0) {
                        out.push(Finding {
                            rule: RULE_KERNEL_PARITY,
                            file: ws.files[ws.fns[f].file].rel_path.clone(),
                            line: ws.fns[f].line,
                            message: format!(
                                "kernel op `{name}` has a different signature here than in \
                                 {} — tiers must be call-compatible",
                                TIERS[holders[0]],
                            ),
                        });
                    }
                }
            }
        }
    }

    // SSE2/AVX2 ops must name their scalar reference.
    for &t in &present {
        if TIERS[t] == "portable.rs" {
            continue;
        }
        for (name, f) in &ops[t] {
            if !names_scalar_reference(ws, *f) {
                out.push(Finding {
                    rule: RULE_KERNEL_PARITY,
                    file: ws.files[ws.fns[*f].file].rel_path.clone(),
                    line: ws.fns[*f].line,
                    message: format!(
                        "intrinsic kernel op `{name}` does not name its scalar reference — \
                         link `portable::{name}` or `KernelKind::{name}` in its docs (or \
                         delegate the tail to `portable::{name}`) so the behavioral \
                         contract is navigable",
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FileIndex;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::build(
            files
                .iter()
                .map(|(p, s)| FileIndex::new(&format!("{KERNELS_DIR}{p}"), s))
                .collect(),
        );
        check(&ws)
    }

    const CLEAN_PORTABLE: &str = "pub(crate) fn fold(dst: &mut [u64], src: &[u64]) {}\n\
                                  pub(crate) fn scan(xs: &[u64]) -> Option<usize> { None }\n\
                                  pub(crate) fn helper_only_here(x: u64) -> u64 { x }";
    const CLEAN_SSE2: &str = "/// Mirrors [`fold`](super::KernelKind::fold).\n\
                              pub(crate) unsafe fn fold(dst: &mut [u64], src: &[u64]) {}\n\
                              pub(crate) unsafe fn scan(xs: &[u64]) -> Option<usize> {\n\
                                  portable::scan(xs)\n\
                              }";
    const CLEAN_AVX2: &str = "/// See [`fold`](super::KernelKind::fold).\n\
                              pub(crate) unsafe fn fold(dst: &mut [u64], src: &[u64]) {}\n\
                              /// Wide scan; reference: portable::scan.\n\
                              pub(crate) unsafe fn scan(xs: &[u64]) -> Option<usize> { None }";

    #[test]
    fn matching_tiers_with_references_are_clean() {
        let f = run(&[
            ("portable.rs", CLEAN_PORTABLE),
            ("sse2.rs", CLEAN_SSE2),
            ("avx2.rs", CLEAN_AVX2),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn missing_ops_signature_drift_and_unreferenced_intrinsics_fire() {
        let avx2_missing_scan = "/// See [`fold`](super::KernelKind::fold).\n\
                                 pub(crate) unsafe fn fold(dst: &mut [u64], src: &[i64]) {}";
        let f = run(&[
            ("portable.rs", CLEAN_PORTABLE),
            (
                "sse2.rs",
                "pub(crate) unsafe fn fold(dst: &mut [u64], src: &[u64]) {}\n\
                         pub(crate) unsafe fn scan(xs: &[u64]) -> Option<usize> { None }",
            ),
            ("avx2.rs", avx2_missing_scan),
        ]);
        // avx2: scan missing + fold signature drift; sse2: fold and
        // scan never name their scalar reference.
        assert!(
            f.iter()
                .any(|x| x.file.ends_with("avx2.rs") && x.message.contains("`scan`")),
            "{f:?}"
        );
        assert!(f
            .iter()
            .any(|x| x.file.ends_with("avx2.rs") && x.message.contains("different signature")));
        assert_eq!(
            f.iter()
                .filter(|x| x.file.ends_with("sse2.rs") && x.message.contains("scalar reference"))
                .count(),
            2,
            "{f:?}"
        );
    }

    #[test]
    fn a_trailing_comma_in_a_multiline_signature_is_not_drift() {
        let f = run(&[
            ("portable.rs", "pub(crate) fn scan(vs: &[i64], below: usize) -> Option<usize> { None }"),
            (
                "avx2.rs",
                "/// Wide scan; reference: portable::scan.\n\
                 pub(crate) unsafe fn scan(\n    vs: &[i64],\n    below: usize,\n) -> Option<usize> { None }",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn private_helpers_and_partial_workspaces_are_exempt() {
        assert!(run(&[("portable.rs", CLEAN_PORTABLE)]).is_empty());
        let f = run(&[
            ("portable.rs", "pub(crate) fn fold(x: u64) -> u64 { x }\nfn local(x: u64) -> u64 { x }"),
            ("sse2.rs", "/// See portable::fold for the reference.\n\
                         pub(crate) unsafe fn fold(x: u64) -> u64 { x }\nfn local2(x: u64) -> u64 { x }"),
            ("avx2.rs", "/// See portable::fold for the reference.\n\
                         pub(crate) unsafe fn fold(x: u64) -> u64 { x }"),
        ]);
        assert!(f.is_empty(), "private helpers are tier-local: {f:?}");
    }
}
