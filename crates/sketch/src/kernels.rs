//! The flat loops every sketch-arena operation bottoms out in.
//!
//! The converge-cast column folds of
//! [`SketchArena::merge_into`](crate::arena::SketchArena::merge_into),
//! the span-partial folds of the stealing merge, the
//! `update`/`update_pair` cell-write path, and the zero-skip scan in
//! front of `decode_parts` on the sample paths are plain safe loops
//! over `zip`s with simple per-field bodies, which LLVM
//! auto-vectorizes where it pays.
//!
//! All integer sums use wrapping arithmetic explicitly: the arena's
//! accounting is defined over two's-complement wrap (a cancellation
//! can transit through "negative" partial sums). Fingerprints add in
//! `GF(2^61 - 1)`. Nothing here is floating point or reassociated, so
//! same seeds and stream give bit-identical cells, samples and
//! snapshot bytes on every host.
//!
//! Every fold takes equal-length slices. `zip` would silently
//! truncate a mismatch, so debug builds check the lengths.

use crate::arena::Cell;
use mpc_hashing::field::M61;

/// The name of the kernel implementation a run used, for run
/// provenance. There is one portable scalar implementation, so
/// [`KernelKind::selected`] always reports [`KernelKind::Scalar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// The portable scalar loops of this module.
    Scalar,
}

impl KernelKind {
    /// Short lowercase name (`"scalar"`).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
        }
    }

    /// The implementation every arena runs.
    pub fn selected() -> KernelKind {
        KernelKind::Scalar
    }
}

/// Folds a span of interleaved cells into the struct-of-arrays
/// scratch slices: `vs[j] += src[j].value_sum`, `is[j] +=
/// src[j].index_sum`, `fp[j] += src[j].fp` (field add).
#[inline]
pub(crate) fn fold_cells_soa(src: &[Cell], vs: &mut [i64], is: &mut [i128], fp: &mut [M61]) {
    debug_assert!(vs.len() == src.len() && is.len() == src.len() && fp.len() == src.len());
    for (((c, v), i), f) in src.iter().zip(vs).zip(is).zip(fp) {
        *v = v.wrapping_add(c.value_sum);
        *i = i.wrapping_add(c.index_sum);
        *f += c.fp;
    }
}

/// Folds one interleaved cell column into another (`dst[j] +=
/// src[j]`, component-wise).
#[inline]
pub(crate) fn fold_cells(dst: &mut [Cell], src: &[Cell]) {
    debug_assert!(dst.len() == src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        d.absorb(s);
    }
}

/// Folds one struct-of-arrays column into another (the span-order
/// partial fold of the stealing merge).
#[inline]
pub(crate) fn fold_soa(
    dst_vs: &mut [i64],
    dst_is: &mut [i128],
    dst_fp: &mut [M61],
    src_vs: &[i64],
    src_is: &[i128],
    src_fp: &[M61],
) {
    debug_assert!(dst_vs.len() == src_vs.len() && dst_is.len() == src_is.len());
    debug_assert!(dst_fp.len() == src_fp.len());
    for (d, s) in dst_vs.iter_mut().zip(src_vs) {
        *d = d.wrapping_add(*s);
    }
    for (d, s) in dst_is.iter_mut().zip(src_is) {
        *d = d.wrapping_add(*s);
    }
    for (d, s) in dst_fp.iter_mut().zip(src_fp) {
        *d += *s;
    }
}

/// The one-cell write behind `update`/`update_pair`: applies
/// `X[index] += delta` to a cell given the widened index `weighted`
/// and the fingerprint term (see [`fp_delta`] for why the
/// fingerprint fold equals the accumulate routine).
#[inline]
pub(crate) fn cell_apply(cell: &mut Cell, weighted: i128, delta: i64, term: M61) {
    cell.value_sum = cell.value_sum.wrapping_add(delta);
    cell.index_sum = cell
        .index_sum
        .wrapping_add(weighted.wrapping_mul(delta as i128));
    cell.fp += fp_delta(term, delta);
}

/// Index of the highest nonzero cell strictly below `below` in an
/// interleaved column, or `None` if all are zero — the zero-skip
/// scan in front of `decode_parts` on the sample paths.
#[inline]
pub(crate) fn top_nonzero_cells(cells: &[Cell], below: usize) -> Option<usize> {
    debug_assert!(below <= cells.len());
    cells[..below].iter().rposition(|c| !c.is_zero())
}

/// [`top_nonzero_cells`] for a struct-of-arrays column (the merge
/// scratch).
#[inline]
pub(crate) fn top_nonzero_soa(vs: &[i64], is: &[i128], fp: &[M61], below: usize) -> Option<usize> {
    debug_assert!(below <= vs.len() && vs.len() == is.len() && vs.len() == fp.len());
    (0..below)
        .rev()
        .find(|&j| vs[j] != 0 || is[j] != 0 || !fp[j].is_zero())
}

/// The fingerprint increment of one `X[index] += delta` update as a
/// single field element, so a cell write is a plain component-wise
/// cell add. Matches `accumulate(acc, term, delta)` exactly: for
/// `delta = 1` both add `term`; for `delta = -1`, `acc - term` and
/// `acc + (-term)` are the same conditional-subtract expression in
/// `GF(2^61 - 1)`; otherwise both add `term · delta`.
#[inline]
pub(crate) fn fp_delta(term: M61, delta: i64) -> M61 {
    match delta {
        1 => term,
        -1 => -term,
        d => term * M61::from_i64(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_delta_matches_accumulate() {
        use mpc_hashing::fingerprint::accumulate;
        let terms = [M61::ZERO, M61::new(1), M61::new(12345), -M61::new(7)];
        for &term in &terms {
            for delta in [-3i64, -1, 0, 1, 2, 9] {
                for &acc in &terms {
                    assert_eq!(
                        acc + fp_delta(term, delta),
                        accumulate(acc, term, delta),
                        "term {term} delta {delta} acc {acc}"
                    );
                }
            }
        }
    }

    #[test]
    fn top_nonzero_scans() {
        let mut cells = vec![Cell::ZERO; 8];
        assert_eq!(top_nonzero_cells(&cells, 8), None);
        cells[3].value_sum = 1;
        cells[6].fp = M61::new(9);
        assert_eq!(top_nonzero_cells(&cells, 8), Some(6));
        assert_eq!(top_nonzero_cells(&cells, 6), Some(3));
        assert_eq!(top_nonzero_cells(&cells, 3), None);

        let vs = [0i64, 0, 0, 0];
        let is = [0i128, 5, 0, 0];
        let fp = [M61::ZERO, M61::ZERO, M61::ZERO, M61::new(2)];
        assert_eq!(top_nonzero_soa(&vs, &is, &fp, 4), Some(3));
        assert_eq!(top_nonzero_soa(&vs, &is, &fp, 3), Some(1));
        assert_eq!(top_nonzero_soa(&vs, &is, &fp, 1), None);
    }
}
