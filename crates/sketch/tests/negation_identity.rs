//! The negation identity the replacement search relies on: the AGM
//! sketches of a closed vertex set `C` (a union of whole components,
//! so its cut is empty) sum to the zero sketch, hence for any group
//! `G ⊂ C` the sketch of `G` equals `−Σ(C ∖ G)` — cell for cell, under
//! the wrapping `i64`/`i128` sums and `GF(2^61 - 1)` fingerprints.
//!
//! Each case partitions `C` into groups, folds `G` directly, folds
//! every other group into its own accumulator, sums those with
//! `accumulate_scratch`, negates, and checks that both accumulators
//! hold identical cells and sample identically at every copy.

use mpc_graph::ids::Edge;
use mpc_graph::oracle;
use mpc_sketch::vertex::EdgeSample;
use mpc_sketch::SketchBank;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A random update stream honouring the dynamic-graph contract
/// (inserts of absent edges, deletes of live ones) over vertices
/// `0..touched`; vertices `touched..n` stay untouched. Returns the
/// stream and the final live edge set.
fn random_stream(touched: u32, updates: usize, seed: u64) -> (Vec<(Edge, bool)>, Vec<Edge>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: BTreeSet<Edge> = BTreeSet::new();
    let mut stream = Vec::new();
    for _ in 0..updates {
        let a = rng.gen_range(0..touched);
        let b = rng.gen_range(0..touched);
        if a == b {
            continue;
        }
        let e = Edge::new(a, b);
        let insert = live.insert(e);
        if !insert {
            live.remove(&e);
        }
        stream.push((e, insert));
    }
    (stream, live.into_iter().collect())
}

/// A bank driven through `stream`.
fn bank_from(n: usize, copies: usize, seed: u64, stream: &[(Edge, bool)]) -> SketchBank {
    let mut bank = SketchBank::new(n, copies, seed);
    for &(e, insert) in stream {
        if insert {
            bank.insert_edge(e);
        } else {
            bank.delete_edge(e);
        }
    }
    bank
}

/// The vertex lists of the components of `live` over `0..n`, in
/// order of their smallest vertex.
fn components(n: usize, live: &[Edge]) -> Vec<Vec<u32>> {
    let labels = oracle::components(n, live.iter().copied());
    let mut comps: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (v, &c) in labels.iter().enumerate() {
        comps[c as usize].push(v as u32);
    }
    comps.retain(|c| !c.is_empty());
    comps
}

/// Cells of one accumulator, level by level.
type Cells = Vec<(i64, i128, mpc_hashing::field::M61)>;

/// Asserts the negation identity for `group` against the other
/// groups of a closed set, at every copy; returns the per-copy
/// samples.
fn assert_identity(
    bank: &SketchBank,
    group: &[u32],
    others: &[Vec<u32>],
    label: &str,
) -> Vec<EdgeSample> {
    let cells =
        |s: &mpc_sketch::MergeScratch| -> Cells { (0..s.levels()).map(|l| s.cell(l)).collect() };
    let mut samples = Vec::new();
    for copy in 0..bank.copies() {
        let mut direct = bank.new_scratch();
        direct.reset(copy);
        bank.merge_copy_into(group, &mut direct);
        let mut rest = bank.new_scratch();
        rest.reset(copy);
        let mut one = bank.new_scratch();
        for other in others {
            one.reset(copy);
            bank.merge_copy_into(other, &mut one);
            bank.accumulate_scratch(&mut rest, &one);
        }
        rest.negate();
        assert_eq!(
            cells(&direct),
            cells(&rest),
            "{label}: cells differ (copy {copy})"
        );
        let sample = bank.sample_merged(&direct);
        assert_eq!(
            sample,
            bank.sample_merged(&rest),
            "{label}: samples differ (copy {copy})"
        );
        samples.push(sample);
    }
    samples
}

/// Splits `set` into `parts` random groups (some may be empty).
fn random_partition(set: &[u32], parts: usize, rng: &mut StdRng) -> Vec<Vec<u32>> {
    let mut groups = vec![Vec::new(); parts];
    for &v in set {
        groups[rng.gen_range(0..parts)].push(v);
    }
    groups
}

#[test]
fn negated_complement_equals_direct_fold_on_random_graphs() {
    for seed in 0..6u64 {
        let n = 80;
        // Vertices 70..80 are never touched.
        let (stream, live) = random_stream(70, 140, 0x6E6 + seed);
        let bank = bank_from(n, 4, 0x5EED ^ seed, &stream);
        let comps = components(n, &live);
        let mut rng = StdRng::seed_from_u64(seed);
        for trial in 0..8 {
            // C: a random union of whole components.
            let mut closed: Vec<u32> = comps
                .iter()
                .filter(|_| rng.gen_bool(0.6))
                .flatten()
                .copied()
                .collect();
            if closed.is_empty() {
                closed = comps[0].clone();
            }
            let parts = rng.gen_range(1..7usize);
            let mut groups = random_partition(&closed, parts, &mut rng);
            let g = groups.swap_remove(rng.gen_range(0..groups.len()));
            assert_identity(
                &bank,
                &g,
                &groups,
                &format!("seed {seed} trial {trial} ({parts} groups)"),
            );
        }
    }
}

#[test]
fn group_without_materialized_members_is_empty_both_ways() {
    let n = 40;
    let (stream, live) = random_stream(30, 60, 0xE3);
    let bank = bank_from(n, 3, 0xE3, &stream);
    let comps = components(n, &live);
    // C: every component; G: untouched vertices only (each its own
    // component, so G ⊂ C); the rest of C split into two groups.
    let untouched: Vec<u32> = (30..n as u32).collect();
    let others: Vec<u32> = comps
        .iter()
        .flatten()
        .copied()
        .filter(|&v| v < 30)
        .collect();
    let (a, b) = others.split_at(others.len() / 2);
    let samples = assert_identity(&bank, &untouched, &[a.to_vec(), b.to_vec()], "untouched");
    assert!(samples.iter().all(|&s| s == EdgeSample::Empty));
    let mut s = bank.new_scratch();
    s.reset(0);
    assert_eq!(bank.merge_copy_into(&untouched, &mut s), 0);
}

#[test]
fn exhausted_group_inside_the_complement() {
    // Two cycles (components {0..6} and {6..10}) plus a path
    // {10..16}. The complement holds the whole second cycle — a
    // group whose own sketch is empty, i.e. an exhausted supernode.
    let mut stream = Vec::new();
    for i in 0..6u32 {
        stream.push((Edge::new(i, (i + 1) % 6), true));
    }
    for i in 0..4u32 {
        stream.push((Edge::new(6 + i, 6 + (i + 1) % 4), true));
    }
    for i in 10..15u32 {
        stream.push((Edge::new(i, i + 1), true));
    }
    // Churn that cancels back out.
    stream.push((Edge::new(2, 13), true));
    stream.push((Edge::new(2, 13), false));
    let bank = bank_from(20, 4, 0xC1C, &stream);
    let exhausted: Vec<u32> = (6..10).collect();
    let own = assert_identity(
        &bank,
        &exhausted,
        &[(0..6).collect(), (10..16).collect()],
        "own",
    );
    assert!(own.iter().all(|&s| s == EdgeSample::Empty));
    // G = part of the first cycle; C ∖ G = the rest of it, the
    // exhausted cycle, and the path in two pieces.
    let samples = assert_identity(
        &bank,
        &[0, 1, 2],
        &[
            vec![3, 4, 5],
            exhausted,
            (10..13).collect(),
            (13..16).collect(),
        ],
        "exhausted in complement",
    );
    // The cut is two-sparse, so a copy may fail to isolate an edge,
    // but never samples anything outside the cut.
    let cut = [Edge::new(2, 3), Edge::new(0, 5)];
    assert!(samples.iter().all(|s| match s {
        EdgeSample::Edge(e) => cut.contains(e),
        other => *other == EdgeSample::Fail,
    }));
    assert!(samples.iter().any(|s| matches!(s, EdgeSample::Edge(_))));
}

#[test]
fn giant_piece_next_to_singleton_pieces() {
    let n = 400;
    // A connected giant on 0..300 (a spanning path plus random
    // chords, some deleted again), and 100 untouched singletons.
    let mut stream: Vec<(Edge, bool)> = (0..299u32).map(|i| (Edge::new(i, i + 1), true)).collect();
    let (chords, _) = random_stream(300, 600, 0x61A);
    stream.extend(chords.into_iter().filter(|(e, _)| e.v() != e.u() + 1));
    let bank = bank_from(n, 4, 0x61A, &stream);
    // Cut out twelve singleton pieces from the giant.
    let singles: Vec<u32> = (0..12u32).map(|i| i * 25 + 7).collect();
    let giant: Vec<u32> = (0..300u32).filter(|v| !singles.contains(v)).collect();
    let mut pieces: Vec<Vec<u32>> = singles.iter().map(|&v| vec![v]).collect();
    pieces.extend((300..n as u32).step_by(10).map(|v| vec![v]));
    // The replacement search's shape: the giant from its singletons…
    let samples = assert_identity(&bank, &giant, &pieces, "giant from singletons");
    assert!(samples.iter().all(|s| !matches!(s, EdgeSample::Empty)));
    // …and a singleton from the giant plus the other singletons.
    let g = pieces.remove(3);
    let mut others = pieces;
    others.push(giant);
    assert_identity(&bank, &g, &others, "singleton from giant");
}
