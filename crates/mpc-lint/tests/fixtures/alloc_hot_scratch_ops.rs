pub fn accumulate_scratch(dst: &mut [u64], src: &[u64]) -> usize {
    let staged = src.to_vec();
    dst.len() + staged.len()
}
pub fn negate(cells: &mut [u64]) -> Vec<u64> {
    cells.iter().map(|c| !c).collect()
}
pub fn not_a_root(n: usize) -> Vec<u64> {
    vec![0; n]
}
