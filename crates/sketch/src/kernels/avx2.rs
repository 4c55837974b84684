//! x86-64 AVX2 kernels: 256-bit lanes — one whole 32-byte cell per
//! vector, four cells (or four scratch columns) per step.
//!
//! A `repr(C)` cell is exactly one `__m256i` with lanes
//! `[index_lo, index_hi, value_sum, fp]`, so the interleaved fold is
//! a single vector add followed by two lane-targeted fix-ups:
//!
//! * **`index_sum` carry**: the full-adder carry-out of lane 0 (the
//!   sign-bit expression `(d & a) | ((d | a) & !s)`), masked to
//!   lane 0 *before* `slli_si256` — that shift moves data within each
//!   128-bit half (lane 0 → 1 and lane 2 → 3), and an unmasked lane 2
//!   carry would corrupt the fingerprint lane.
//! * **fingerprint reduce**: AVX2 has signed 64-bit compares, so the
//!   conditional subtract is `cmpgt_epi64` against a threshold vector
//!   of `[i64::MAX, i64::MAX, i64::MAX, P - 1]` (lanes that must not
//!   reduce compare against `i64::MAX`, which nothing exceeds) and a
//!   masked subtract of `P`.
//!
//! The struct-of-arrays folds use `permute2x128` to split four loaded
//! cells into their `index_sum` halves (the low 128 bits of a cell
//! vector *is* its `i128`, so pairing low halves yields exactly the
//! two-`i128` destination layout) and `unpacklo/hi_epi64` +
//! `permute4x64` to transpose the `[value_sum, fp]` halves into
//! columns. All loads/stores are unaligned; tails fall back to
//! [`portable`].

#![allow(unsafe_code)]

use super::portable;
use crate::arena::Cell;
use mpc_hashing::field::{M61, P};

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

/// Lane-wise `a + b` with a conditional subtract of `p_vec` in the
/// lanes where the wrapping sum exceeds `threshold` (signed compare).
/// With `threshold = P - 1` and `p_vec = P` in a lane this is the
/// `GF(2^61 - 1)` add for reduced inputs; with `threshold = i64::MAX`
/// and `p_vec = 0` the lane is a plain wrapping add.
///
/// # Safety
/// SAFETY: requires AVX2 (callers are `#[target_feature(enable = "avx2")]`
/// functions reached only after feature detection).
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn add_cond_sub(a: __m256i, b: __m256i, threshold: __m256i, p_vec: __m256i) -> __m256i {
    let s = _mm256_add_epi64(a, b);
    let over = _mm256_cmpgt_epi64(s, threshold);
    _mm256_sub_epi64(s, _mm256_and_si256(over, p_vec))
}

/// Lane-wise carry-out of `s = d + a` as a 0/1 value per lane.
///
/// # Safety
/// SAFETY: requires AVX2 (see [`add_cond_sub`]).
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn carry_lanes(d: __m256i, a: __m256i, s: __m256i) -> __m256i {
    let both = _mm256_and_si256(d, a);
    let either = _mm256_or_si256(d, a);
    let c = _mm256_or_si256(both, _mm256_andnot_si256(s, either));
    _mm256_srli_epi64(c, 63)
}

/// Adds one whole cell of `src` into `dst`: one 256-bit add, carry
/// fix-up into the `index_hi` lane, fingerprint reduce in lane 3.
///
/// # Safety
/// SAFETY: requires AVX2; `dst`/`src` must be valid cell pointers. `Cell` is
/// `repr(C)` with the documented four-lane layout; the fingerprint
/// lane stays reduced because the masked conditional subtract mirrors
/// `M61::add` exactly in lane 3 and touches nothing else.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn fold_one_cell(dst: *mut Cell, src: *const Cell) {
    let d = _mm256_loadu_si256(dst as *const __m256i);
    let a = _mm256_loadu_si256(src as *const __m256i);
    let s = _mm256_add_epi64(d, a);
    // index_sum carry: keep only lane 0's carry-out, then shift it
    // into lane 1 (slli_si256 moves lane 0 -> 1 within the low half).
    let lane0 = _mm256_set_epi64x(0, 0, 0, -1);
    let carry = _mm256_and_si256(carry_lanes(d, a, s), lane0);
    let s = _mm256_add_epi64(s, _mm256_slli_si256(carry, 8));
    // fp reduce in lane 3 only; other lanes compare against i64::MAX
    // (never exceeded) so their subtract mask is zero.
    let threshold = _mm256_set_epi64x((P - 1) as i64, i64::MAX, i64::MAX, i64::MAX);
    let p_vec = _mm256_set_epi64x(P as i64, 0, 0, 0);
    let over = _mm256_cmpgt_epi64(s, threshold);
    let s = _mm256_sub_epi64(s, _mm256_and_si256(over, p_vec));
    _mm256_storeu_si256(dst as *mut __m256i, s);
}

/// Adds two `i128` lanes (`[lo0, hi0, lo1, hi1]`) of `a` into the
/// same layout in `d`, with carries masked to the even (low) lanes so
/// `slli_si256` propagates lane 0 → 1 and lane 2 → 3 independently.
///
/// # Safety
/// SAFETY: requires AVX2 (see [`add_cond_sub`]).
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn add_i128_pair(d: __m256i, a: __m256i) -> __m256i {
    let s = _mm256_add_epi64(d, a);
    let even = _mm256_set_epi64x(0, -1, 0, -1);
    let carry = _mm256_and_si256(carry_lanes(d, a, s), even);
    _mm256_add_epi64(s, _mm256_slli_si256(carry, 8))
}

/// AVX2 [`fold_cells_soa`](super::KernelKind::fold_cells_soa): four
/// cells per step. `index_sum` pairs come straight from
/// `permute2x128` of whole-cell vectors; `[value_sum, fp]` halves are
/// transposed into columns with unpacks + `permute4x64(0xD8)`.
///
/// # Safety
/// SAFETY: requires AVX2 (callers dispatch only after feature detection).
/// Slice lengths must be equal; all pointer arithmetic is within
/// `chunks_exact(4)` chunks.
// Dispatch routes the SoA fold to the scalar body; the tier stays for
// parity + the bit-identity test.
#[allow(dead_code)]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn fold_cells_soa(src: &[Cell], vs: &mut [i64], is: &mut [i128], fp: &mut [M61]) {
    let mut cells = src.chunks_exact(4);
    let mut vs_it = vs.chunks_exact_mut(4);
    let mut is_it = is.chunks_exact_mut(4);
    let mut fp_it = fp.chunks_exact_mut(4);
    let p_all = _mm256_set1_epi64x(P as i64);
    let thr_all = _mm256_set1_epi64x((P - 1) as i64);
    for (((c, v), i), f) in (&mut cells).zip(&mut vs_it).zip(&mut is_it).zip(&mut fp_it) {
        let ptr = c.as_ptr() as *const __m256i;
        let c0 = _mm256_loadu_si256(ptr);
        let c1 = _mm256_loadu_si256(ptr.add(1));
        let c2 = _mm256_loadu_si256(ptr.add(2));
        let c3 = _mm256_loadu_si256(ptr.add(3));

        // index_sum: low halves of (c0, c1) form [is0, is1], low
        // halves of (c2, c3) form [is2, is3] -- the destination's own
        // memory layout.
        let i_ptr = i.as_mut_ptr() as *mut __m256i;
        let src01 = _mm256_permute2x128_si256(c0, c1, 0x20);
        let src23 = _mm256_permute2x128_si256(c2, c3, 0x20);
        let d01 = _mm256_loadu_si256(i_ptr as *const __m256i);
        let d23 = _mm256_loadu_si256(i_ptr.add(1) as *const __m256i);
        _mm256_storeu_si256(i_ptr, add_i128_pair(d01, src01));
        _mm256_storeu_si256(i_ptr.add(1), add_i128_pair(d23, src23));

        // [value_sum, fp] halves: x = [v0, f0, v1, f1],
        // y = [v2, f2, v3, f3]; unpack + permute4x64(0xD8) yields the
        // value and fingerprint columns in cell order.
        let x = _mm256_permute2x128_si256(c0, c1, 0x31);
        let y = _mm256_permute2x128_si256(c2, c3, 0x31);
        let v_col = _mm256_permute4x64_epi64(_mm256_unpacklo_epi64(x, y), 0xD8);
        let f_col = _mm256_permute4x64_epi64(_mm256_unpackhi_epi64(x, y), 0xD8);

        let v_dst = _mm256_loadu_si256(v.as_ptr() as *const __m256i);
        _mm256_storeu_si256(
            v.as_mut_ptr() as *mut __m256i,
            _mm256_add_epi64(v_dst, v_col),
        );
        let f_dst = _mm256_loadu_si256(f.as_ptr() as *const __m256i);
        let f_sum = add_cond_sub(f_dst, f_col, thr_all, p_all);
        _mm256_storeu_si256(f.as_mut_ptr() as *mut __m256i, f_sum);
    }
    portable::fold_cells_soa(
        cells.remainder(),
        vs_it.into_remainder(),
        is_it.into_remainder(),
        fp_it.into_remainder(),
    );
}

/// AVX2 [`fold_cells`](super::KernelKind::fold_cells): one vector per
/// cell.
///
/// # Safety
/// SAFETY: requires AVX2; slice lengths must be equal (pointers stay inside
/// the zipped elements).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn fold_cells(dst: &mut [Cell], src: &[Cell]) {
    for (d, s) in dst.iter_mut().zip(src) {
        fold_one_cell(d, s);
    }
}

/// AVX2 [`fold_soa`](super::KernelKind::fold_soa): four lanes per
/// step on the value and fingerprint columns, two `i128` lanes per
/// step on `index_sum`.
///
/// # Safety
/// SAFETY: requires AVX2; paired slices must have equal lengths.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn fold_soa(
    dst_vs: &mut [i64],
    dst_is: &mut [i128],
    dst_fp: &mut [M61],
    src_vs: &[i64],
    src_is: &[i128],
    src_fp: &[M61],
) {
    let mut d_it = dst_vs.chunks_exact_mut(4);
    let mut s_it = src_vs.chunks_exact(4);
    for (d, s) in (&mut d_it).zip(&mut s_it) {
        let sum = _mm256_add_epi64(
            _mm256_loadu_si256(d.as_ptr() as *const __m256i),
            _mm256_loadu_si256(s.as_ptr() as *const __m256i),
        );
        _mm256_storeu_si256(d.as_mut_ptr() as *mut __m256i, sum);
    }
    for (d, s) in d_it.into_remainder().iter_mut().zip(s_it.remainder()) {
        *d = d.wrapping_add(*s);
    }

    let mut di_it = dst_is.chunks_exact_mut(2);
    let mut si_it = src_is.chunks_exact(2);
    for (d, s) in (&mut di_it).zip(&mut si_it) {
        let sum = add_i128_pair(
            _mm256_loadu_si256(d.as_ptr() as *const __m256i),
            _mm256_loadu_si256(s.as_ptr() as *const __m256i),
        );
        _mm256_storeu_si256(d.as_mut_ptr() as *mut __m256i, sum);
    }
    for (d, s) in di_it.into_remainder().iter_mut().zip(si_it.remainder()) {
        *d = d.wrapping_add(*s);
    }

    let p_all = _mm256_set1_epi64x(P as i64);
    let thr_all = _mm256_set1_epi64x((P - 1) as i64);
    let mut df_it = dst_fp.chunks_exact_mut(4);
    let mut sf_it = src_fp.chunks_exact(4);
    for (d, s) in (&mut df_it).zip(&mut sf_it) {
        let sum = add_cond_sub(
            _mm256_loadu_si256(d.as_ptr() as *const __m256i),
            _mm256_loadu_si256(s.as_ptr() as *const __m256i),
            thr_all,
            p_all,
        );
        _mm256_storeu_si256(d.as_mut_ptr() as *mut __m256i, sum);
    }
    for (d, s) in df_it.into_remainder().iter_mut().zip(sf_it.remainder()) {
        *d += *s;
    }
}

/// AVX2 [`cell_apply`](super::KernelKind::cell_apply): materializes
/// the update as a delta cell and folds it in with the whole-cell
/// vector fold.
///
/// # Safety
/// SAFETY: requires AVX2; `cell` is a valid exclusive reference.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn cell_apply(cell: &mut Cell, weighted: i128, delta: i64, term: M61) {
    let delta_cell = Cell {
        index_sum: weighted.wrapping_mul(delta as i128),
        value_sum: delta,
        fp: super::fp_delta(term, delta),
    };
    fold_one_cell(cell, &delta_cell);
}

/// AVX2 [`top_nonzero_cells`](super::KernelKind::top_nonzero_cells):
/// downward scan with one `vptest` per 32-byte cell.
///
/// # Safety
/// SAFETY: requires AVX2; `below <= cells.len()` (checked by the slice
/// index).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn top_nonzero_cells(cells: &[Cell], below: usize) -> Option<usize> {
    let live = &cells[..below];
    (0..live.len()).rev().find(|&j| {
        let v = _mm256_loadu_si256(&live[j] as *const Cell as *const __m256i);
        _mm256_testz_si256(v, v) == 0
    })
}

/// AVX2 [`top_nonzero_soa`](super::KernelKind::top_nonzero_soa):
/// downward scan ORing all three columns per index.
///
/// # Safety
/// SAFETY: requires AVX2; `below` must not exceed the common slice length.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn top_nonzero_soa(
    vs: &[i64],
    is: &[i128],
    fp: &[M61],
    below: usize,
) -> Option<usize> {
    (0..below)
        .rev()
        .find(|&j| vs[j] != 0 || is[j] != 0 || !fp[j].is_zero())
}
