//! The `churn` and `grow` workloads: one batch-dynamic `Connectivity`
//! behind a `Session`, fed by the E20 power-law generator
//! (`gen::powerlaw_churn_stream`).
//!
//! `churn` toggles a hot edge set (15% of updates), so tree-edge
//! deletions drive ETF splits and the Borůvka replacement search over
//! sketch merges. `grow` is the same generator at churn 0 from an
//! empty graph: no deletion ever runs, so merge, sample and split are
//! bypassed.
//!
//! The traced run replays every batch outside the session spans:
//!
//! * a **twin** `Connectivity`, cloned from the session's after
//!   set-up, timed by direct `Connectivity::apply_batch` calls;
//! * a **shadow `SketchBank`** of the same shape and seed, fed the
//!   batch's updates (`sketch.update`), and the Borůvka cascade over
//!   the pieces of each split, through `merge_copy_into` and
//!   `sample_merged` (`sketch.merge`, `sketch.sample`);
//! * a **shadow `DistEtf`**, cloned from the twin's, driven by the
//!   change of the twin's spanning forest: join the batch's new tree
//!   edges, split the deleted tree edges, then join the replacements —
//!   the order the maintainer splices in (`etf.join`, `etf.split`).

use crate::gate::LiveGraph;
use crate::metrics::{median, ms, ratio, Tally};
use crate::trace::{SpanId, Tracer};
use crate::{
    derive_seed, finish_session, probe_after, time_setup, timed_setups, Durability, Loop, Outcome,
    Scale, SplitMix, Workload, MAINTAINER_SEED,
};
use mpc_etf::{DistEtf, TourId};
use mpc_graph::gen;
use mpc_graph::ids::{Edge, VertexId};
use mpc_graph::oracle::UnionFind;
use mpc_graph::update::{Batch, Update};
use mpc_sim::{MpcConfig, MpcContext};
use mpc_sketch::vertex::EdgeSample;
use mpc_sketch::SketchBank;
use mpc_snapshot::{Persist, Snapshot, SnapshotWriter};
use mpc_stream_core::{
    Connectivity, ConnectivityConfig, Handle, MaintainerRegistry, QueryRequest, QueryResponse,
    Session,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The shape of a connectivity workload.
#[derive(Debug, Clone)]
pub struct ConnShape {
    /// Vertices.
    pub n: usize,
    /// Updates per submitted batch.
    pub width: usize,
    /// Share of updates that toggle a hot edge.
    pub churn: f64,
    /// Independent sketch copies per vertex.
    pub copies: usize,
    /// Warm-up: submit the stream prefix until this many edges are
    /// live (0: start from the empty graph).
    pub warm_edges: usize,
    /// Measured batches per second of `--seconds` (the measured phase
    /// is a fixed batch count, so two commits do identical work).
    pub batches_per_second: f64,
    /// An ask point after every this many batches.
    pub ask_every: usize,
    /// Sampled `Connected(u, v)` asks per ask point.
    pub connected_per_ask: usize,
    /// Sampled `ComponentOf(v)` asks per ask point.
    pub component_of_per_ask: usize,
    /// Set-ups timed before the measured phase (the last one is
    /// measured).
    pub setup_repeats: usize,
    /// Further set-ups timed and dropped between measured batches
    /// (0 where a set-up includes a warm-up ingest).
    pub setup_probes: usize,
    /// Local memory per machine, `s`.
    pub local_capacity: u64,
    /// Host worker count, set explicitly.
    pub workers: usize,
}

impl ConnShape {
    /// The shape of `churn` or `grow` at `scale`.
    pub fn new(workload: Workload, scale: Scale) -> Self {
        let churn = workload == Workload::Churn;
        let full = scale == Scale::Full;
        let n = if full { 100_000 } else { 1_000 };
        ConnShape {
            n,
            width: if full { 512 } else { 64 },
            churn: if churn { 0.15 } else { 0.0 },
            copies: 8,
            warm_edges: if churn { n } else { 0 },
            batches_per_second: match (churn, full) {
                (true, true) => 20.0,
                (false, true) => 150.0,
                (_, false) => 20.0,
            },
            ask_every: if churn { 8 } else { 64 },
            connected_per_ask: 16,
            component_of_per_ask: 4,
            setup_repeats: 5,
            setup_probes: if churn { 0 } else { 20 },
            local_capacity: 1 << 18,
            workers: 1,
        }
    }

    /// Every parameter, for the provenance block.
    pub fn params(&self, batches: usize) -> Vec<(&'static str, String)> {
        vec![
            ("maintainer", "connectivity".into()),
            ("generator", "gen::powerlaw_churn_stream".into()),
            ("n", self.n.to_string()),
            ("width", self.width.to_string()),
            ("churn", self.churn.to_string()),
            ("sketch_copies", self.copies.to_string()),
            ("warm_edges", self.warm_edges.to_string()),
            ("measured_batches", batches.to_string()),
            ("ask_every", self.ask_every.to_string()),
            ("connected_per_ask", self.connected_per_ask.to_string()),
            (
                "component_of_per_ask",
                self.component_of_per_ask.to_string(),
            ),
            ("setup_repeats", self.setup_repeats.to_string()),
            ("setup_probes", self.setup_probes.to_string()),
            ("maintainer_seed", MAINTAINER_SEED.to_string()),
            ("local_capacity", self.local_capacity.to_string()),
            ("phi", "0.5".into()),
            ("workers", self.workers.to_string()),
        ]
    }

    fn config(&self) -> MpcConfig {
        MpcConfig::builder(2 * self.n, 0.5)
            .local_capacity(self.local_capacity)
            .build()
    }

    fn session(&self, seed: u64) -> (Session, Handle<Connectivity>) {
        let mut session = Session::new(self.config()).with_workers(self.workers);
        let h = session.register(Connectivity::new(
            self.n,
            ConnectivityConfig {
                sketch_copies: Some(self.copies),
            },
            seed,
        ));
        (session, h)
    }
}

/// Length of the stream prefix after which `target` edges are live.
fn warm_prefix(batches: &[Batch], n: usize, target: usize) -> usize {
    if target == 0 {
        return 0;
    }
    let mut live = LiveGraph::new(n);
    for (i, b) in batches.iter().enumerate() {
        live.apply(b);
        if live.len() >= target {
            return i + 1;
        }
    }
    batches.len()
}

/// Runs `churn` or `grow`.
pub fn run(
    workload: Workload,
    shape: &ConnShape,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    out_dir: &Path,
) -> Outcome {
    let measured = ((seconds * shape.batches_per_second).round() as usize).max(2);
    // Warm-up needs about `warm_edges / (width · 0.7)` batches; the
    // generator is asked for a generous bound and the prefix is cut
    // where the live count reaches the target.
    let warm_bound = (2 * shape.warm_edges).div_ceil(shape.width);
    let stream = gen::powerlaw_churn_stream(
        shape.n,
        warm_bound + measured,
        shape.width,
        shape.churn,
        derive_seed(seed, 0x5eed_0001),
    );
    let warm = warm_prefix(&stream.batches, shape.n, shape.warm_edges);
    let (prefix, rest) = stream.batches.split_at(warm);
    let batches = &rest[..measured.min(rest.len())];
    let mseed = MAINTAINER_SEED;
    let mut rng = SplitMix::new(derive_seed(seed, 0x5eed_0003));

    let mut tally = Tally::default();
    let mut out = Outcome::new(shape.params(batches.len()));

    // Set-up: session construction plus the warm-up ingest, repeated;
    // the last session is the measured one. The warm-up prefix is one
    // submission: the session normalizes it to its net effect (every
    // toggled edge cancels or ends inserted) and chunks it, so the
    // graph reaches the prefix's live edge set without replaying the
    // prefix batch by batch.
    let build = |tally: &mut Tally| {
        let (mut session, h) = shape.session(mseed);
        if !prefix.is_empty() {
            let warm = session.apply(prefix.iter().flat_map(Batch::iter));
            tally.op("warm-up apply", warm);
        }
        (session, h)
    };
    let ((mut session, h), mut setups) = timed_setups(shape.setup_repeats, || build(&mut tally));
    let mut live = LiveGraph::new(shape.n);
    for b in prefix {
        live.apply(b);
    }
    out.report.push(format!(
        "set-up: {} warm-up batches, {} live edges",
        prefix.len(),
        live.len()
    ));

    let mut replay = tracer
        .enabled()
        .then(|| Replay::new(session.get(h), shape, mseed, &live));
    let mut lp = Loop::new(&session);
    for (i, b) in batches.iter().enumerate() {
        tracer.set_batch(i as u64 + 1);
        let root = tracer.open("batch", "", None);
        let before = replay
            .is_some()
            .then(|| session.ctx().stats().rounds_by_op.clone());
        let (r, d) = tracer.time("session.apply", "", root, || session.apply_batch(b));
        let Some(reports) = tally.op("apply", r) else {
            break;
        };
        lp.applied(&session, before.as_ref(), d, reports.len(), b.len());
        live.apply(b);
        if let Some(rp) = replay.as_mut() {
            rp.batch(b, tracer, root, &mut tally);
        }
        if (i + 1) % shape.ask_every == 0 || i + 1 == batches.len() {
            ask_point(
                &mut session,
                h,
                shape,
                &live,
                &mut rng,
                tracer,
                root,
                &mut tally,
                &mut lp,
            );
        }
        tracer.close(root);
        if probe_after(i, batches.len(), shape.setup_probes) {
            setups.push(time_setup(|| build(&mut tally)));
        }
    }
    lp.end_to_end(&session, &setups, &mut out.metrics);
    out.report.push(format!(
        "{}; set-up median {:.4} s of {:.4?}",
        lp.summary(live.len()),
        median(&setups),
        setups
    ));

    if let Some(rp) = replay {
        lp.session_layers(&session, &mut out.layers);
        finish_session(&mut session, &mut out, &mut tally, None);
        // The snapshot layer is measured on the twin and its shadows;
        // the session goes first to keep one fewer arena resident.
        drop(session);
        let apply_ms = lp.apply_total_ms();
        rp.finish(
            apply_ms, tracer, out_dir, workload, seed, &mut out, &mut tally,
        );
    } else {
        let durability = Durability {
            registry: MaintainerRegistry::core(),
            path: out_dir.join(format!("{}-{seed}.snap", workload.name())),
            probes: probe_queries(shape.n, derive_seed(seed, 0x5eed_0004)),
            workers: shape.workers,
        };
        finish_session(&mut session, &mut out, &mut tally, Some(durability));
    }
    out.tally = tally;
    out
}

/// One ask point: `ComponentCount`, then sampled `Connected` and
/// `ComponentOf`, each timed as one `Session::ask` call and checked
/// against the union-find oracle outside the timed region.
#[allow(clippy::too_many_arguments)]
fn ask_point(
    session: &mut Session,
    h: Handle<Connectivity>,
    shape: &ConnShape,
    live: &LiveGraph,
    rng: &mut SplitMix,
    tracer: &mut Tracer,
    root: Option<SpanId>,
    tally: &mut Tally,
    lp: &mut Loop,
) {
    let n = shape.n as u64;
    let mut queries = vec![QueryRequest::ComponentCount];
    for _ in 0..shape.connected_per_ask {
        queries.push(QueryRequest::Connected(
            rng.below(n) as VertexId,
            rng.below(n) as VertexId,
        ));
    }
    for _ in 0..shape.component_of_per_ask {
        queries.push(QueryRequest::ComponentOf(rng.below(n) as VertexId));
    }
    let mut answers = Vec::with_capacity(queries.len());
    let mut point = Duration::ZERO;
    for q in &queries {
        let kind = crate::query_kind(q);
        let (r, d) = tracer.time("session.ask", kind, root, || session.ask(h, q));
        point += d;
        lp.asked(kind, d);
        answers.push(r);
    }
    lp.ask_point(point);
    let truth = live.truth();
    for (q, r) in queries.iter().zip(answers) {
        let Some(answer) = tally.op("ask", r) else {
            continue;
        };
        let want = match *q {
            QueryRequest::ComponentCount => QueryResponse::Count(truth.components),
            QueryRequest::Connected(u, v) => {
                QueryResponse::Bool(truth.labels[u as usize] == truth.labels[v as usize])
            }
            QueryRequest::ComponentOf(v) => QueryResponse::Vertex(truth.labels[v as usize]),
            _ => unreachable!("only connectivity queries are asked"),
        };
        tally.expect(answer == want, || {
            format!("{q}: answered {answer}, oracle says {want}")
        });
    }
}

/// The sampled asks a restored session must answer like the original.
fn probe_queries(n: usize, seed: u64) -> Vec<QueryRequest> {
    let mut rng = SplitMix::new(seed);
    let n = n as u64;
    let mut q = vec![QueryRequest::ComponentCount];
    for _ in 0..32 {
        q.push(QueryRequest::Connected(
            rng.below(n) as VertexId,
            rng.below(n) as VertexId,
        ));
        q.push(QueryRequest::ComponentOf(rng.below(n) as VertexId));
    }
    q
}

/// The traced run's twin and shadows.
struct Replay {
    twin: Connectivity,
    ctx: MpcContext,
    bank: SketchBank,
    etf: DistEtf,
    shadow_ctx: MpcContext,
    labels: Vec<VertexId>,
    tree_deletions: u64,
    replacements: u64,
    relabelled: u64,
    l0_failures: u64,
    sketch_updates: u64,
    merge_members: u64,
    samples: u64,
    sample_edges: u64,
    join_edges: u64,
    split_edges: u64,
}

impl Replay {
    fn new(conn: &Connectivity, shape: &ConnShape, seed: u64, live: &LiveGraph) -> Self {
        let twin = conn.clone();
        let mut bank = SketchBank::new(shape.n, shape.copies, seed);
        for e in live.edges() {
            bank.insert_edge(e);
        }
        Replay {
            ctx: MpcContext::new(shape.config()),
            shadow_ctx: MpcContext::new(shape.config()),
            etf: twin.etf().clone(),
            labels: twin.component_labels().to_vec(),
            l0_failures: twin.sampler_failure_count(),
            twin,
            bank,
            tree_deletions: 0,
            replacements: 0,
            relabelled: 0,
            sketch_updates: 0,
            merge_members: 0,
            samples: 0,
            sample_edges: 0,
            join_edges: 0,
            split_edges: 0,
        }
    }

    /// Replays one batch on the twin and the shadows.
    ///
    /// Before the batch the shadow ETF holds the twin's forest, so the
    /// deleted tree edges are the batch's deletions it contains, and
    /// the replacements are the twin's new forest edges it lacks that
    /// the insertions did not join.
    fn batch(&mut self, b: &Batch, tracer: &mut Tracer, root: Option<SpanId>, tally: &mut Tally) {
        let joined = self.insertion_forest(b);
        let removed: Vec<Edge> = b
            .deletions()
            .filter(|&e| self.etf.contains_edge(e))
            .collect();
        let rep = tracer.open("replay", "", root);
        let (r, _) = tracer.time("connectivity.apply", "", rep, || {
            self.twin.apply_batch(b, &mut self.ctx)
        });
        tally.op("twin apply", r);
        let replaced: Vec<Edge> = if removed.is_empty() {
            Vec::new()
        } else {
            let mut new_edges = joined.clone();
            new_edges.sort_unstable();
            self.twin
                .etf()
                .forest_edges()
                .filter(|&e| !self.etf.contains_edge(e) && new_edges.binary_search(&e).is_err())
                .collect()
        };
        self.tree_deletions += removed.len() as u64;
        self.replacements += replaced.len() as u64;
        let labels = self.twin.component_labels();
        self.relabelled += labels
            .iter()
            .zip(&self.labels)
            .filter(|(a, b)| a != b)
            .count() as u64;
        self.labels.copy_from_slice(labels);
        self.l0_failures = self.twin.sampler_failure_count();

        let bank = &mut self.bank;
        tracer.time("sketch.update", "", rep, || {
            for u in b.iter() {
                match u {
                    Update::Insert(e) => bank.insert_edge(e),
                    Update::Delete(e) => bank.delete_edge(e),
                }
            }
        });
        self.sketch_updates += b.len() as u64;
        self.join(&joined, tracer, rep);
        if !removed.is_empty() {
            let (pieces, _) = tracer.time("etf.split", "", rep, || {
                self.etf.batch_split(&removed, &mut self.shadow_ctx)
            });
            self.split_edges += removed.len() as u64;
            self.boruvka(&pieces, tracer, rep);
        }
        self.join(&replaced, tracer, rep);
        tracer.close(rep);
        tally.expect(
            self.etf.edge_count() == self.twin.etf().edge_count(),
            || "shadow ETF diverged from the twin's forest".into(),
        );
    }

    /// The batch's insertions that join two components, in batch
    /// order, given the labels before the batch — the forest the
    /// maintainer splices in before it handles deletions (a sampled
    /// replacement may also be a new edge, so the forest diff alone
    /// cannot tell the two joins apart).
    fn insertion_forest(&self, b: &Batch) -> Vec<Edge> {
        let mut index: BTreeMap<VertexId, u32> = BTreeMap::new();
        let mut forest = Vec::new();
        let mut uf = UnionFind::new(2 * b.len());
        for e in b.insertions() {
            let mut id = |v: VertexId| {
                let next = index.len() as u32;
                *index.entry(self.labels[v as usize]).or_insert(next)
            };
            let (a, c) = (id(e.u()), id(e.v()));
            if uf.union(a, c) {
                forest.push(e);
            }
        }
        forest
    }

    fn join(&mut self, edges: &[Edge], tracer: &mut Tracer, parent: Option<SpanId>) {
        if edges.is_empty() {
            return;
        }
        tracer.time("etf.join", "", parent, || {
            self.etf.batch_join(edges, &mut self.shadow_ctx)
        });
        self.join_edges += edges.len() as u64;
    }

    /// The replacement search's sketch work over the split pieces:
    /// per level, merge each live supernode's member columns into one
    /// scratch and sample it, then union the pieces the sampled edges
    /// connect (the control flow of `Connectivity`'s cascade).
    fn boruvka(&mut self, pieces: &[TourId], tracer: &mut Tracer, parent: Option<SpanId>) {
        let piece_index: BTreeMap<TourId, u32> = pieces
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        let members: Vec<Vec<VertexId>> = pieces
            .iter()
            .map(|&t| self.etf.tour_members(t).to_vec())
            .collect();
        let mut uf = UnionFind::new(pieces.len());
        let mut exhausted = vec![false; pieces.len()];
        let mut scratch = self.bank.new_scratch();
        let (mut merge_t, mut sample_t) = (Duration::ZERO, Duration::ZERO);
        let (mut merges, mut samples) = (0u32, 0u32);
        let start = Instant::now();
        for level in 0..self.bank.copies() {
            let mut groups: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for i in 0..pieces.len() as u32 {
                groups.entry(uf.find(i)).or_default().push(i);
            }
            if groups.len() <= 1 {
                break;
            }
            let mut found = Vec::new();
            for (&root, group) in &groups {
                if exhausted[root as usize] {
                    continue;
                }
                scratch.reset(level);
                let t = Instant::now();
                let mut absorbed = 0;
                for &pi in group {
                    absorbed += self
                        .bank
                        .merge_copy_into(&members[pi as usize], &mut scratch);
                    self.merge_members += members[pi as usize].len() as u64;
                }
                merge_t += t.elapsed();
                merges += group.len() as u32;
                if absorbed == 0 {
                    exhausted[root as usize] = true;
                    continue;
                }
                let t = Instant::now();
                let sample = self.bank.sample_merged(&scratch);
                sample_t += t.elapsed();
                samples += 1;
                match sample {
                    EdgeSample::Edge(e) => {
                        self.sample_edges += 1;
                        found.push(e);
                    }
                    EdgeSample::Empty => exhausted[root as usize] = true,
                    EdgeSample::Fail => {}
                }
            }
            let mut progress = false;
            for e in found {
                let pa = piece_index.get(&self.etf.tour_of(e.u()));
                let pb = piece_index.get(&self.etf.tour_of(e.v()));
                if let (Some(&a), Some(&b)) = (pa, pb) {
                    if uf.union(a, b) {
                        exhausted[uf.find(a) as usize] = false;
                        progress = true;
                    }
                }
            }
            if !progress && groups.keys().all(|&r| exhausted[r as usize]) {
                break;
            }
        }
        self.samples += u64::from(samples);
        tracer.record_folded("sketch.merge", "", parent, start, merge_t, merges);
        tracer.record_folded("sketch.sample", "", parent, start, sample_t, samples);
    }

    /// Per-layer metrics, the snapshot layer on the twin and its
    /// shadows, and the layer breakdown.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        self,
        session_apply_ms: f64,
        tracer: &mut Tracer,
        out_dir: &Path,
        workload: Workload,
        seed: u64,
        out: &mut Outcome,
        tally: &mut Tally,
    ) {
        let t = |name: &str| ms(tracer.total(name));
        let conn_ms = t("connectivity.apply");
        let update_ms = t("sketch.update");
        let merge_ms = t("sketch.merge");
        let sample_ms = t("sketch.sample");
        let join_ms = t("etf.join");
        let split_ms = t("etf.split");
        let conn_self = conn_ms - update_ms - merge_ms - sample_ms - join_ms - split_ms;
        let l = &mut out.layers;
        l.set("session.self_ms", session_apply_ms - conn_ms, "ms");
        l.set("connectivity.apply_ms", conn_ms, "ms");
        l.set("connectivity.self_ms", conn_self, "ms");
        l.set(
            "connectivity.tree_deletions",
            self.tree_deletions as f64,
            "count",
        );
        l.set(
            "connectivity.replacements",
            self.replacements as f64,
            "count",
        );
        l.set("connectivity.relabelled", self.relabelled as f64, "count");
        l.set("connectivity.l0_failures", self.l0_failures as f64, "count");
        l.set("sketch.update_ms", update_ms, "ms");
        l.set("sketch.updates", self.sketch_updates as f64, "count");
        l.set("sketch.merge_ms", merge_ms, "ms");
        l.set("sketch.sample_ms", sample_ms, "ms");
        l.set("sketch.merge_members", self.merge_members as f64, "count");
        l.set("sketch.samples", self.samples as f64, "count");
        l.set(
            "sketch.sample_edge_ratio",
            ratio(self.sample_edges as f64, self.samples as f64),
            "ratio",
        );
        l.set("etf.join_ms", join_ms, "ms");
        l.set("etf.join_edges", self.join_edges as f64, "count");
        l.set("etf.split_ms", split_ms, "ms");
        l.set("etf.split_edges", self.split_edges as f64, "count");

        let share = |x: f64| 100.0 * ratio(x, session_apply_ms);
        out.report.push(format!(
            "layer breakdown (self time as a share of session.apply_ms = {session_apply_ms:.1} ms):"
        ));
        for (name, v) in [
            (
                "session (front door, chunk, audit)",
                session_apply_ms - conn_ms,
            ),
            ("sketch.update", update_ms),
            ("sketch.merge (fold)", merge_ms),
            ("sketch.sample", sample_ms),
            ("etf.join", join_ms),
            ("etf.split", split_ms),
            (
                "connectivity self (BTree normalize, relabel, Borůvka control, account)",
                conn_self,
            ),
        ] {
            out.report
                .push(format!("  {name:<72} {v:>10.1} ms {:>6.1}%", share(v)));
        }
        out.report.push(format!(
            "  unattributed remainder of connectivity.apply_ms (= connectivity self) {:>6.1}%",
            100.0 * ratio(conn_self, conn_ms)
        ));
        if workload == Workload::Churn {
            let buckets = [
                ("Borůvka merge/sample", merge_ms + sample_ms),
                ("ETF splicing", join_ms + split_ms),
                (
                    "BTree normalize/relabel and control (connectivity self)",
                    conn_self,
                ),
            ];
            let top = buckets
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map_or("none", |b| b.0);
            let kernels = update_ms + merge_ms + sample_ms;
            let non_kernel = join_ms + split_ms + conn_self;
            out.report.push(format!(
                "Amdahl claim (control flow, ETF splicing and BTree bookkeeping outweigh \
                 the sketch kernels): {} — non-kernel {:.1}% vs sketch kernels {:.1}% of \
                 connectivity.apply_ms; largest bucket: {top}",
                if non_kernel > kernels {
                    "holds"
                } else {
                    "does not hold"
                },
                100.0 * ratio(non_kernel, conn_ms),
                100.0 * ratio(kernels, conn_ms),
            ));
        }

        // Snapshot layer: byte sizes of each part, then encode, write,
        // read and decode of the whole twin.
        let section_bytes = |save: &dyn Fn(&mut SnapshotWriter)| {
            let mut w = SnapshotWriter::new(0);
            w.begin_section("part");
            save(&mut w);
            w.end_section()
        };
        let l = &mut out.layers;
        l.set(
            "snapshot.bytes.sketch",
            section_bytes(&|w| self.bank.save(w)) as f64,
            "bytes",
        );
        drop(self.bank);
        l.set(
            "snapshot.bytes.etf",
            section_bytes(&|w| self.twin.etf().save(w)) as f64,
            "bytes",
        );
        l.set(
            "snapshot.bytes.labels",
            section_bytes(&|w| self.twin.component_labels().to_vec().save(w)) as f64,
            "bytes",
        );
        let path = out_dir.join(format!("{}-{seed}-twin.snap", workload.name()));
        let mut w = SnapshotWriter::new(0);
        w.begin_section("connectivity");
        let (_, encode) = tracer.time("snapshot.encode", "", None, || self.twin.save(&mut w));
        w.end_section();
        let (written, write) = tracer.time("snapshot.write", "", None, || w.write_to(&path));
        let (snap, read) = tracer.time("snapshot.read", "", None, || Snapshot::read_from(&path));
        let _ = std::fs::remove_file(&path);
        let mut decode = Duration::ZERO;
        if tally.op("twin snapshot write", written).is_some() {
            if let Some(snap) = tally.op("twin snapshot read", snap) {
                let (loaded, d) = tracer.time("snapshot.decode", "", None, || {
                    snap.section("connectivity")
                        .and_then(|mut r| Connectivity::load(&mut r))
                });
                decode = d;
                if let Some(c) = tally.op("twin snapshot decode", loaded) {
                    tally.expect(
                        c.component_labels() == self.twin.component_labels()
                            && c.spanning_forest() == self.twin.spanning_forest(),
                        || "decoded twin differs from the saved one".into(),
                    );
                }
            }
        }
        let l = &mut out.layers;
        l.set("snapshot.encode_ms", ms(encode), "ms");
        l.set("snapshot.write_ms", ms(write), "ms");
        l.set("snapshot.read_ms", ms(read), "ms");
        l.set("snapshot.decode_ms", ms(decode), "ms");
    }
}
