//! The repository benchmark.
//!
//! One command runs one workload through the public API of the
//! workspace and prints every metric by name with its unit, ending
//! with a one-line JSON result. Three closed-loop workloads, one
//! caller each (the next batch is submitted when the previous call
//! returns):
//!
//! * `churn` — power-law churn at `n = 10⁵` through one
//!   `Connectivity`: tree-edge deletions drive ETF splits and the
//!   Borůvka replacement search over sketch merges;
//! * `grow` — the same generator, insert only, from an empty graph:
//!   merge, sample and split are bypassed;
//! * `roster` — five maintainers on their own machine groups at two
//!   workers: the fan-out, fork/replay and executor carry the time.
//!
//! The input is generated from `--seed` before any timing, and the
//! measured phase is a fixed number of batches sized so that it lasts
//! about `--seconds` on the reference host: two commits measured with
//! the same arguments do identical work, and the model counts (rounds,
//! words, memory) repeat exactly at a fixed seed.
//!
//! Every answer goes through the oracle gate ([`gate`]); any `Err`, wrong
//! answer or capacity violation is a failed operation and the command
//! exits nonzero. With `--trace 1` the run records spans around the
//! calls into each layer ([`trace`]) and reports per-layer metrics
//! instead of the end-to-end ones.

pub mod conn;
pub mod gate;
pub mod metrics;
pub mod provenance;
pub mod roster;
pub mod trace;

use metrics::{median, ms, percentile, ratio, Metrics, Tally};
use mpc_sim::stats::Op;
use mpc_sim::SessionStats;
use mpc_stream_core::{MaintainerRegistry, QueryRequest, Session};
use provenance::Provenance;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// End-to-end metrics `(name, unit)`: reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("updates_per_s", "updates/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p95_ms", "ms"),
    ("ask_p50_ms", "ms"),
    ("checkpoint_s", "s"),
    ("checkpoint_mb", "MB"),
    ("restore_s", "s"),
    ("rounds_per_batch", "rounds"),
    ("max_batch_rounds", "rounds"),
    ("words_per_update", "words"),
    ("peak_machine_words", "words"),
    ("state_words", "words"),
];

/// Per-layer metrics `(name, unit)`: reported by every traced run
/// (0 where a workload does not exercise the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.updates_per_s", "updates/s"),
    ("session.apply_ms", "ms"),
    ("session.self_ms", "ms"),
    ("session.chunks_per_batch", "count"),
    ("session.batch_p99_ms", "ms"),
    ("session.ask_ms", "ms"),
    ("session.ask_p95_ms", "ms"),
    ("query.component_count_us", "us"),
    ("query.connected_us", "us"),
    ("query.component_of_us", "us"),
    ("query.forest_weight_us", "us"),
    ("query.matching_size_us", "us"),
    ("query.is_bipartite_us", "us"),
    ("executor.serial_sum_ms", "ms"),
    ("executor.critical_path_ms", "ms"),
    ("executor.parallel_efficiency", "ratio"),
    ("maintainer.connectivity.apply_ms", "ms"),
    ("maintainer.msf-approx-weight.apply_ms", "ms"),
    ("maintainer.bipartiteness.apply_ms", "ms"),
    ("maintainer.matching-akly.apply_ms", "ms"),
    ("maintainer.kconn-dynamic.apply_ms", "ms"),
    ("connectivity.apply_ms", "ms"),
    ("connectivity.self_ms", "ms"),
    ("connectivity.tree_deletions", "count"),
    ("connectivity.replacements", "count"),
    ("connectivity.relabelled", "count"),
    ("connectivity.l0_failures", "count"),
    ("sketch.update_ms", "ms"),
    ("sketch.updates", "count"),
    ("sketch.merge_ms", "ms"),
    ("sketch.sample_ms", "ms"),
    ("sketch.merge_members", "count"),
    ("sketch.samples", "count"),
    ("sketch.sample_edge_ratio", "ratio"),
    ("etf.join_ms", "ms"),
    ("etf.join_edges", "count"),
    ("etf.split_ms", "ms"),
    ("etf.split_edges", "count"),
    ("mpc.rounds.exchange", "rounds"),
    ("mpc.rounds.broadcast", "rounds"),
    ("mpc.rounds.aggregate", "rounds"),
    ("mpc.rounds.sort", "rounds"),
    ("mpc.rounds.gather", "rounds"),
    ("mpc.peak_round_words", "words"),
    ("mpc.capacity_violations", "count"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.read_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.bytes.sketch", "bytes"),
    ("snapshot.bytes.etf", "bytes"),
    ("snapshot.bytes.labels", "bytes"),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Power-law churn through one `Connectivity`.
    Churn,
    /// Insert-only growth through one `Connectivity`.
    Grow,
    /// Five maintainers at two workers.
    Roster,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Churn, Workload::Grow, Workload::Roster];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Churn => "churn",
            Workload::Grow => "grow",
            Workload::Roster => "roster",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: the benchmark's own, or tiny shapes for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark shapes.
    Full,
    /// Tiny shapes that run in a debug build in about a second.
    Tiny,
}

/// One run's arguments.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Target length of the measured phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where snapshots and the span log go.
    pub out_dir: PathBuf,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload parameters, for the provenance block.
    pub params: Vec<(&'static str, String)>,
    /// End-to-end metrics.
    pub metrics: Metrics,
    /// Per-layer metrics (traced runs).
    pub layers: Metrics,
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Operations attempted and failed.
    pub tally: Tally,
}

impl Outcome {
    fn new(params: Vec<(&'static str, String)>) -> Self {
        Outcome {
            params,
            ..Outcome::default()
        }
    }
}

/// A finished run: everything `main` prints.
#[derive(Debug)]
pub struct RunResult {
    /// The provenance block.
    pub provenance: Provenance,
    /// Report lines.
    pub report: Vec<String>,
    /// The metrics of the final line: end-to-end, or per-layer when
    /// traced.
    pub metrics: Metrics,
    /// Operations attempted and failed.
    pub tally: Tally,
}

impl RunResult {
    /// The final JSON line.
    pub fn result_line(&self) -> String {
        metrics::result_line(&self.tally, &self.metrics)
    }
}

/// Runs one workload.
pub fn run(cfg: &RunConfig) -> RunResult {
    let mut tracer = Tracer::new(cfg.trace);
    let started = Instant::now();
    let _ = std::fs::create_dir_all(&cfg.out_dir);
    let mut out = match cfg.workload {
        Workload::Churn | Workload::Grow => {
            let shape = conn::ConnShape::new(cfg.workload, cfg.scale);
            conn::run(
                cfg.workload,
                &shape,
                cfg.seed,
                cfg.seconds,
                &mut tracer,
                &cfg.out_dir,
            )
        }
        Workload::Roster => {
            let shape = roster::RosterShape::new(cfg.scale);
            roster::run(&shape, cfg.seed, cfg.seconds, &mut tracer, &cfg.out_dir)
        }
    };
    let provenance = Provenance::collect(
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        std::mem::take(&mut out.params),
    );
    let (catalog, measured) = if cfg.trace {
        let mut layers = std::mem::take(&mut out.layers);
        if let Some(u) = out.metrics.get("updates_per_s") {
            layers.set("trace.updates_per_s", u, "updates/s");
        }
        (PER_LAYER, layers)
    } else {
        (END_TO_END, std::mem::take(&mut out.metrics))
    };
    // Exactly the catalog, in catalog order; a layer a workload does
    // not exercise reads 0.
    let mut metrics = Metrics::default();
    for &(name, unit) in catalog {
        let v = measured.get(name).unwrap_or(0.0);
        out.tally
            .expect(v.is_finite(), || format!("{name} is not finite"));
        metrics.set(name, v, unit);
    }
    if cfg.trace {
        let path = cfg
            .out_dir
            .join(format!("trace-{}-{}.json", cfg.workload.name(), cfg.seed));
        if out
            .tally
            .op("write span log", tracer.write_json(&path))
            .is_some()
        {
            out.report.push(format!(
                "span log: {} spans in {}",
                tracer.spans().len(),
                path.display()
            ));
        }
    }
    out.report.push(format!(
        "wall time {:.1} s; {} operations attempted, {} failed",
        started.elapsed().as_secs_f64(),
        out.tally.attempted,
        out.tally.failed
    ));
    for f in out.tally.findings.iter().take(20) {
        out.report.push(format!("FAILED: {f}"));
    }
    RunResult {
        provenance,
        report: out.report,
        metrics,
        tally: out.tally,
    }
}

/// Runs `setup` `repeats` times (at least once), timing each run;
/// returns the last result, the one measured, with every run's seconds.
/// Earlier results are dropped before the next run starts.
pub(crate) fn timed_setups<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut built = None;
    for _ in 0..repeats.max(1) {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (built.expect("at least one set-up ran"), times)
}

/// Seconds one run of `setup` takes; the result is dropped untimed.
pub(crate) fn time_setup<T>(setup: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    let built = setup();
    let seconds = t0.elapsed().as_secs_f64();
    drop(built);
    seconds
}

/// Whether a set-up probe follows batch `i` of `batches`: `probes`
/// probes, evenly spaced over the measured phase, so that the set-up
/// median samples the host over the whole run and not only its start.
pub(crate) fn probe_after(i: usize, batches: usize, probes: usize) -> bool {
    batches > 0 && (i + 1) * probes / batches != i * probes / batches
}

/// Seed of the maintainers' own random choices (hash functions,
/// samplers, partitions). It is fixed: `--seed` varies the input only,
/// so the model counts and snapshot sizes move with the input and the
/// program, not with the luck of one maintainer's hash draw.
pub const MAINTAINER_SEED: u64 = 0x5eed_0002;

/// The measured loop's records, shared by the workloads: per-call
/// apply latencies, ask points, and the session's counters.
pub(crate) struct Loop {
    stats0: SessionStats,
    apply_ms: Vec<f64>,
    ask_ms: Vec<f64>,
    kind_us: BTreeMap<&'static str, Vec<f64>>,
    rounds_by_op: BTreeMap<String, u64>,
    chunks: usize,
    updates: u64,
}

impl Loop {
    /// Starts recording at the session's current counters.
    pub(crate) fn new(session: &Session) -> Self {
        Loop {
            stats0: session.stats().clone(),
            apply_ms: Vec::new(),
            ask_ms: Vec::new(),
            kind_us: BTreeMap::new(),
            rounds_by_op: BTreeMap::new(),
            chunks: 0,
            updates: 0,
        }
    }

    /// Records one apply call of `updates` updates that took `d` and
    /// fanned out `chunks` chunks; with `rounds_before` (traced runs),
    /// also the rounds it charged per primitive.
    pub(crate) fn applied(
        &mut self,
        session: &Session,
        rounds_before: Option<&BTreeMap<Op, u64>>,
        d: Duration,
        chunks: usize,
        updates: usize,
    ) {
        self.apply_ms.push(ms(d));
        self.chunks += chunks;
        self.updates += updates as u64;
        if let Some(before) = rounds_before {
            for (op, &r) in &session.ctx().stats().rounds_by_op {
                let delta = r - before.get(op).copied().unwrap_or(0);
                *self.rounds_by_op.entry(op.to_string()).or_insert(0) += delta;
            }
        }
    }

    /// Records one ask call of kind `kind`.
    pub(crate) fn asked(&mut self, kind: &'static str, d: Duration) {
        self.kind_us
            .entry(kind)
            .or_default()
            .push(d.as_secs_f64() * 1e6);
    }

    /// Records the total ask time of one ask point.
    pub(crate) fn ask_point(&mut self, total: Duration) {
        self.ask_ms.push(ms(total));
    }

    /// Batches applied.
    pub(crate) fn batches(&self) -> usize {
        self.apply_ms.len()
    }

    /// Time inside apply calls, in milliseconds.
    pub(crate) fn apply_total_ms(&self) -> f64 {
        self.apply_ms.iter().sum()
    }

    /// The end-to-end metrics the loop measures.
    pub(crate) fn end_to_end(&self, session: &Session, setups: &[f64], m: &mut Metrics) {
        let batches = self.batches().max(1) as f64;
        let stats = session.stats();
        m.set("setup_s", median(setups), "s");
        m.set(
            "updates_per_s",
            ratio(self.updates as f64, self.apply_total_ms() / 1e3),
            "updates/s",
        );
        m.set("batch_p50_ms", percentile(&self.apply_ms, 50.0), "ms");
        m.set("batch_p95_ms", percentile(&self.apply_ms, 95.0), "ms");
        m.set("ask_p50_ms", percentile(&self.ask_ms, 50.0), "ms");
        m.set(
            "rounds_per_batch",
            (stats.rounds - self.stats0.rounds) as f64 / batches,
            "rounds",
        );
        m.set(
            "words_per_update",
            ratio(
                (stats.words - self.stats0.words) as f64,
                self.updates as f64,
            ),
            "words",
        );
    }

    /// The session-layer, query and model-cost per-layer metrics.
    pub(crate) fn session_layers(&self, session: &Session, l: &mut Metrics) {
        let batches = self.batches().max(1) as f64;
        l.set("session.apply_ms", self.apply_total_ms(), "ms");
        l.set(
            "session.chunks_per_batch",
            self.chunks as f64 / batches,
            "count",
        );
        l.set(
            "session.batch_p99_ms",
            percentile(&self.apply_ms, 99.0),
            "ms",
        );
        l.set("session.ask_ms", self.ask_ms.iter().sum::<f64>(), "ms");
        l.set("session.ask_p95_ms", percentile(&self.ask_ms, 95.0), "ms");
        for (kind, us) in &self.kind_us {
            l.set(format!("query.{kind}_us"), median(us), "us");
        }
        for (op, r) in &self.rounds_by_op {
            l.set(format!("mpc.rounds.{op}"), *r as f64 / batches, "rounds");
        }
        let ctx = session.ctx().stats();
        l.set("mpc.peak_round_words", ctx.peak_round_words as f64, "words");
        l.set(
            "mpc.capacity_violations",
            (ctx.violations.len() as u64 + session.stats().capacity_violations) as f64,
            "count",
        );
    }

    /// One report line summing up the loop.
    pub(crate) fn summary(&self, live_edges: usize) -> String {
        format!(
            "measured: {} batches, {} updates, {} ask points, {live_edges} live edges at end",
            self.batches(),
            self.updates,
            self.ask_ms.len()
        )
    }
}

/// Checkpoint and restore of a measured session.
pub struct Durability {
    /// Decoders for every maintainer kind in the session.
    pub registry: MaintainerRegistry,
    /// Snapshot file (removed afterwards).
    pub path: PathBuf,
    /// Queries the restored session must answer like the original.
    pub probes: Vec<QueryRequest>,
    /// Worker count of the restored session.
    pub workers: usize,
}

/// End-of-run model counts and capacity audit, then (untraced runs)
/// one checkpoint and one restore, checked by asking both sessions
/// the probe queries.
pub(crate) fn finish_session(
    session: &mut Session,
    out: &mut Outcome,
    tally: &mut Tally,
    durability: Option<Durability>,
) {
    let s = session.ctx().config().local_capacity();
    let ctx_stats = session.ctx().stats();
    let peak = ctx_stats.peak_machine_words;
    let violations = ctx_stats.violations.len() as u64 + session.stats().capacity_violations;
    let m = &mut out.metrics;
    m.set(
        "max_batch_rounds",
        session.stats().max_batch_rounds as f64,
        "rounds",
    );
    m.set("peak_machine_words", peak as f64, "words");
    m.set("state_words", session.state_words() as f64, "words");
    let groups = mpc_sim::MachineGroup::partition(
        session.ctx().config().machines(),
        session.maintainer_count(),
    );
    let audit: Vec<String> = session
        .stats()
        .per_maintainer
        .iter()
        .zip(&groups)
        .map(|(m, g)| {
            format!(
                "{} {:.1}% ({} violations)",
                m.name,
                100.0 * m.peak_state_words as f64 / g.capacity(s) as f64,
                m.capacity_violations
            )
        })
        .collect();
    out.report.push(format!(
        "capacity: peak state as a share of its machine group: {}; peak machine words {peak} \
         of s = {s}",
        audit.join(", ")
    ));
    tally.attempted += 1;
    tally.expect(violations == 0 && peak <= s, || {
        format!("capacity audit: {violations} violations, peak machine words {peak} vs s = {s}")
    });
    let Some(d) = durability else {
        return;
    };
    let t0 = Instant::now();
    let receipt = session.checkpoint(&d.path);
    let checkpoint_s = t0.elapsed().as_secs_f64();
    let Some(receipt) = tally.op("checkpoint", receipt) else {
        return;
    };
    let t0 = Instant::now();
    let restored = Session::restore(&d.path, &d.registry);
    let restore_s = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&d.path);
    let m = &mut out.metrics;
    m.set("checkpoint_s", checkpoint_s, "s");
    m.set("checkpoint_mb", receipt.bytes as f64 / 1e6, "MB");
    m.set("restore_s", restore_s, "s");
    let Some(mut restored) = tally.op("restore", restored) else {
        return;
    };
    restored.set_workers(d.workers);
    tally.attempted += 1;
    tally.expect(restored.stats() == session.stats(), || {
        "restored session stats differ from the original".into()
    });
    for q in &d.probes {
        let (a, b) = (session.ask_all(q), restored.ask_all(q));
        tally.attempted += 1;
        match (a, b) {
            (Ok(a), Ok(b)) => tally.expect(a == b, || {
                format!("{q}: original answered {a:?}, restored answered {b:?}")
            }),
            (a, b) => tally.fail(format!("{q} on original/restored: {a:?} / {b:?}")),
        }
    }
    let sections: Vec<String> = receipt
        .maintainers
        .iter()
        .map(|(name, bytes)| format!("{name} {:.1} MB", *bytes as f64 / 1e6))
        .collect();
    out.report.push(format!(
        "durability: checkpoint {:.3} s, {:.1} MB ({}); restore {:.3} s; {} probe queries compared",
        checkpoint_s,
        receipt.bytes as f64 / 1e6,
        sections.join(", "),
        restore_s,
        d.probes.len()
    ));
}

/// The query kind of a request, as used in span details and metric
/// names.
pub fn query_kind(q: &QueryRequest) -> &'static str {
    match q {
        QueryRequest::Connected(..) => "connected",
        QueryRequest::ComponentOf(_) => "component_of",
        QueryRequest::ComponentCount => "component_count",
        QueryRequest::SpanningForest => "spanning_forest",
        QueryRequest::ForestWeight => "forest_weight",
        QueryRequest::MatchingSize => "matching_size",
        QueryRequest::MatchingEdges => "matching_edges",
        QueryRequest::MinCutLowerBound => "min_cut_lower_bound",
        QueryRequest::IsBipartite => "is_bipartite",
    }
}

/// A seed for one purpose, derived from the workload seed.
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    SplitMix::new(seed ^ purpose.rotate_left(32)).next_u64()
}

/// SplitMix64: the benchmark's own small seeded generator for query
/// sampling (independent of the library's randomness).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `[0, bound)` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// The directory next to the benchmark's sources that holds snapshots
/// and span logs.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::probe_after;

    #[test]
    fn set_up_probes_are_spread_over_the_measured_phase() {
        for (batches, probes) in [(760, 20), (3000, 20), (400, 0), (7, 20), (0, 20)] {
            let at: Vec<usize> = (0..batches)
                .filter(|&i| probe_after(i, batches, probes))
                .collect();
            assert_eq!(at.len(), probes.min(batches), "{batches} batches");
            if probes > 0 && batches >= probes {
                assert_eq!(at.last(), Some(&(batches - 1)));
                assert!(at
                    .windows(2)
                    .all(|w| w[1] - w[0] <= batches.div_ceil(probes)));
            }
        }
    }
}
