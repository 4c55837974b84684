/// Lane-wise fold, shaped like a `#[target_feature]` SIMD entry point.
///
/// # Safety
/// SAFETY: requires SSE2 (callers dispatch only after feature
/// detection); slice lengths must be equal.
#[target_feature(enable = "sse2")]
pub unsafe fn fold(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.wrapping_add(*s);
    }
}

pub fn dispatch(dst: &mut [u64], src: &[u64]) {
    // SAFETY: guarded by the feature check on the line above the call.
    if is_x86_feature_detected!("sse2") {
        unsafe { fold(dst, src) }
    }
}
