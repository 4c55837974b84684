//! Property tests for the arena's merge and sample paths on
//! randomized arenas: the work-stealing merge must equal the serial
//! merge across the `merge_into_stealing` span-split seams, empty,
//! full and cancelled live masks must sample correctly, cancelled
//! members must merge to the zero sketch, and a snapshot must
//! restore byte-stable.

use mpc_sketch::l0::SampleOutcome;
use mpc_sketch::{MergeScratch, SketchArena};
use mpc_snapshot::{Persist, SnapshotWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Serializes an arena to snapshot bytes.
fn snapshot_bytes(arena: &SketchArena) -> Vec<u8> {
    let mut w = SnapshotWriter::new(0);
    w.begin_section("arena");
    arena.save(&mut w);
    w.end_section();
    w.finish()
}

/// Random adversarial stream: single updates, pair updates, and
/// exact cancellations (re-applying an earlier update negated), so
/// live-mask bits both set and clear.
fn random_stream(
    arena: &mut SketchArena,
    rng: &mut StdRng,
    n: u32,
    max_index: u64,
    updates: usize,
) {
    let mut history: Vec<(u32, u64, i64)> = Vec::new();
    for _ in 0..updates {
        match rng.gen_range(0..4) {
            // Cancel an earlier single update exactly.
            0 if !history.is_empty() => {
                let (v, index, delta) = history.swap_remove(rng.gen_range(0..history.len()));
                arena.update(v, index, -delta);
            }
            // Pair update (the edge path).
            1 => {
                let a = rng.gen_range(0..n);
                let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                let index = rng.gen_range(0..max_index);
                arena.materialize(a);
                arena.materialize(b);
                arena.update_pair(a, b, index, 1, -1);
            }
            // Single update with a small weight.
            _ => {
                let v = rng.gen_range(0..n);
                let index = rng.gen_range(0..max_index);
                let delta = [1, -1, 2, -3][rng.gen_range(0..4usize)];
                arena.materialize(v);
                arena.update(v, index, delta);
                history.push((v, index, delta));
            }
        }
    }
}

/// An arena over `n` vertices driven through a seeded random stream.
fn random_arena(n: u32, copies: usize, max_index: u64, seed: u64, updates: usize) -> SketchArena {
    let mut arena = SketchArena::new(n as usize, copies, max_index, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
    random_stream(&mut arena, &mut rng, n, max_index, updates);
    arena
}

/// One merge observation: absorbed count, scratch cells, and the
/// decoded sample.
type MergeObservation = (
    usize,
    Vec<(i64, i128, mpc_hashing::field::M61)>,
    SampleOutcome,
);

/// Merges `members` at `copy`, serially or through the stealing path.
fn observe_merge(
    arena: &SketchArena,
    members: &[u32],
    copy: usize,
    pool: Option<&mpc_sim::WorkerPool>,
) -> MergeObservation {
    let mut scratch: MergeScratch = arena.new_scratch();
    scratch.reset(copy);
    let absorbed = match pool {
        Some(_) => arena.merge_into_stealing(members, &mut scratch, pool),
        None => arena.merge_into(members, &mut scratch),
    };
    let cells = (0..scratch.levels()).map(|l| scratch.cell(l)).collect();
    (absorbed, cells, arena.sample_scratch(&scratch))
}

#[test]
fn stealing_merge_equals_serial_merge_at_span_seams() {
    // 300 members with SPAN=128 puts seams at 128 and 256 — member
    // counts straddle the 2*SPAN stealing threshold and leave an
    // unaligned 44-member tail span.
    let n = 300u32;
    let arena = random_arena(n, 2, 1 << 12, 0xB0B, 2_000);
    let pool = mpc_sim::WorkerPool::new(3);
    let mut rng = StdRng::seed_from_u64(7);
    for (count, label) in [
        (1usize, "singleton"),
        (64, "sub-span"),
        (129, "one seam"),
        (300, "full set with tail span"),
    ] {
        let mut members: Vec<u32> = (0..n).collect();
        for i in 0..count {
            let j = rng.gen_range(i..n as usize);
            members.swap(i, j);
        }
        members.truncate(count);
        for copy in 0..arena.copies() {
            let serial = observe_merge(&arena, &members, copy, None);
            let stealing = observe_merge(&arena, &members, copy, Some(&pool));
            assert_eq!(serial, stealing, "{label}: copy {copy}");
        }
    }
}

#[test]
fn empty_full_and_cancelled_masks_sample_correctly() {
    let max_index = 1u64 << 6; // 9 levels: every level reachable.
    let mut arena = SketchArena::new(16, 2, max_index, 0xF00D);
    // Vertex 0: untouched (no block). Vertex 1: materialized but
    // empty (all-zero mask). Vertex 2: every index once — every level
    // of every copy live (full mask). Vertex 3: filled then exactly
    // cancelled (mask set, then cleared back to empty).
    arena.materialize(1);
    for index in 0..max_index {
        arena.materialize(2);
        arena.update(2, index, 1);
        arena.materialize(3);
        arena.update(3, index, 1);
    }
    for index in 0..max_index {
        arena.update(3, index, -1);
    }
    for copy in 0..arena.copies() {
        assert_eq!(arena.sample_column(0, copy), SampleOutcome::Zero);
        assert_eq!(arena.sample_column(1, copy), SampleOutcome::Zero);
        assert_eq!(arena.sample_column(3, copy), SampleOutcome::Zero);
        assert!(
            !matches!(arena.sample_column(2, copy), SampleOutcome::Zero),
            "copy {copy}: full column must not sample Zero"
        );
        // The cancelled-and-empty member set must still sample Zero
        // through the union-mask path, and adding the full column
        // must not.
        let (absorbed, _, sample) = observe_merge(&arena, &[0, 1, 3], copy, None);
        assert_eq!(absorbed, 2, "untouched vertex 0 is skipped");
        assert_eq!(
            sample,
            SampleOutcome::Zero,
            "copy {copy}: cancelled members must merge to the zero sketch"
        );
        let (_, _, sample) = observe_merge(&arena, &[0, 1, 2, 3], copy, None);
        assert_ne!(sample, SampleOutcome::Zero, "copy {copy}");
    }
}

#[test]
fn snapshot_restore_is_byte_stable() {
    // One- and two-copy shapes over small columns and the widest
    // column that still carries a 64-bit live mask (max_index 1<<61).
    for (n, copies, max_index) in [(40u32, 2usize, 1u64 << 8), (17, 1, 1 << 4), (8, 2, 1 << 61)] {
        let arena = random_arena(n, copies, max_index, 0x5EED, 400);
        let bytes = snapshot_bytes(&arena);
        let snap = mpc_snapshot::Snapshot::from_bytes(&bytes).expect("readable");
        let mut r = snap.section("arena").expect("arena section");
        let restored = SketchArena::load(&mut r).expect("loadable");
        assert_eq!(
            bytes,
            snapshot_bytes(&restored),
            "n={n}, copies={copies}: restore must be byte-stable"
        );
    }
}
