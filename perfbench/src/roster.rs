//! The `roster` workload: five maintainers on their own machine
//! groups behind one `Session` at two workers, fed a random weighted
//! mixed stream (`gen::random_weighted_stream`).
//!
//! This is where the fan-out, fork/replay and the executor carry the
//! time: each chunk runs one branch per maintainer, and the branches
//! are uneven, so the slowest sets the batch's time. Reads go through
//! the same fan-out (`ask_all` after every batch), so a fan-out change
//! shows on both `updates_per_s` and `ask_p50_ms`.
//!
//! `MinCutLowerBound` is left out of the query mix: `DynamicKConn`
//! answers it by a Θ(k log n) recompute that would swamp every other
//! number. kconn still ingests.
//!
//! The traced run replays each batch on twin maintainers (same
//! constructors and seeds, one context each), timing each branch's
//! `Maintain::ingest_weighted` alone: their sum is the serial work,
//! their maximum the critical path of an ideal schedule.

use crate::gate::{forest_weight_ok, matching_size_ok, LiveGraph};
use crate::metrics::{median, ms, ratio, Tally};
use crate::trace::Tracer;
use crate::{
    derive_seed, finish_session, probe_after, time_setup, timed_setups, Durability, Loop, Outcome,
    Scale, MAINTAINER_SEED,
};
use mpc_graph::gen;
use mpc_kconn::DynamicKConn;
use mpc_matching::AklyMatching;
use mpc_msf::{ApproxMsfWeight, Bipartiteness};
use mpc_sim::{MpcConfig, MpcContext};
use mpc_stream_core::{
    Connectivity, ConnectivityConfig, Maintain, MaintainerRegistry, QueryRequest, QueryResponse,
    Session,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// The shape of the roster workload.
#[derive(Debug, Clone)]
pub struct RosterShape {
    /// Vertices.
    pub n: usize,
    /// Updates per submitted batch.
    pub width: usize,
    /// Probability an update is an insertion.
    pub p_insert: f64,
    /// Weights are uniform in `1..=max_weight`.
    pub max_weight: u64,
    /// MSF weight approximation `ε`.
    pub eps: f64,
    /// Matching approximation `α`.
    pub alpha: f64,
    /// Edge connectivity `k`.
    pub k: usize,
    /// Host worker count, set explicitly.
    pub workers: usize,
    /// Measured batches per second of `--seconds`.
    pub batches_per_second: f64,
    /// Set-ups timed before the measured phase (the last one is
    /// measured).
    pub setup_repeats: usize,
    /// Further set-ups timed and dropped between measured batches.
    pub setup_probes: usize,
    /// Local memory per machine, `s`.
    pub local_capacity: u64,
}

/// The questions asked after every batch.
pub const ROSTER_QUERIES: [QueryRequest; 4] = [
    QueryRequest::ComponentCount,
    QueryRequest::ForestWeight,
    QueryRequest::MatchingSize,
    QueryRequest::IsBipartite,
];

impl RosterShape {
    /// The roster shape at `scale`.
    pub fn new(scale: Scale) -> Self {
        let full = scale == Scale::Full;
        RosterShape {
            n: if full { 3_000 } else { 400 },
            width: if full { 256 } else { 32 },
            p_insert: 0.6,
            max_weight: 64,
            eps: 1.0,
            alpha: 2.0,
            k: 2,
            workers: 2,
            batches_per_second: if full { 38.0 } else { 20.0 },
            setup_repeats: 5,
            setup_probes: 20,
            local_capacity: if full { 1 << 14 } else { 1 << 12 },
        }
    }

    /// Every parameter, for the provenance block.
    pub fn params(&self, batches: usize) -> Vec<(&'static str, String)> {
        vec![
            (
                "maintainers",
                "connectivity, msf-approx-weight, bipartiteness, matching-akly, kconn-dynamic"
                    .into(),
            ),
            ("generator", "gen::random_weighted_stream".into()),
            ("n", self.n.to_string()),
            ("width", self.width.to_string()),
            ("p_insert", self.p_insert.to_string()),
            ("max_weight", self.max_weight.to_string()),
            ("eps", self.eps.to_string()),
            ("alpha", self.alpha.to_string()),
            ("k", self.k.to_string()),
            ("measured_batches", batches.to_string()),
            (
                "queries",
                "component_count, forest_weight, matching_size, is_bipartite".into(),
            ),
            ("setup_repeats", self.setup_repeats.to_string()),
            ("setup_probes", self.setup_probes.to_string()),
            ("maintainer_seed", MAINTAINER_SEED.to_string()),
            ("local_capacity", self.local_capacity.to_string()),
            ("phi", "0.5".into()),
            ("workers", self.workers.to_string()),
        ]
    }

    /// Five machine groups, each three times the size a
    /// single-maintainer default cluster would get: the approximate MSF
    /// weight keeps one sketch-backed connectivity instance per weight
    /// class and reaches twice a default cluster's capacity on this
    /// stream, and the bipartiteness maintainer, over the doubled
    /// cover, exceeds it too.
    fn config(&self) -> MpcConfig {
        let base = MpcConfig::builder(self.n, 0.5)
            .local_capacity(self.local_capacity)
            .build();
        MpcConfig::builder(self.n, 0.5)
            .local_capacity(self.local_capacity)
            .machines(5 * 3 * base.machines())
            .build()
    }

    /// The five maintainers, in registration order.
    fn maintainers(&self, seed: u64) -> Vec<Box<dyn Maintain>> {
        let n = self.n;
        vec![
            Box::new(Connectivity::new(n, ConnectivityConfig::default(), seed)),
            Box::new(ApproxMsfWeight::new(n, self.eps, self.max_weight, seed + 1)),
            Box::new(Bipartiteness::new(n, seed + 2)),
            Box::new(AklyMatching::new(n, self.alpha, seed + 3)),
            Box::new(DynamicKConn::new(n, self.k, seed + 4)),
        ]
    }

    fn session(&self, seed: u64) -> Session {
        let mut session = Session::new(self.config()).with_workers(self.workers);
        for m in self.maintainers(seed) {
            session.register_boxed(m);
        }
        session
    }
}

/// The decoders of every roster maintainer.
fn registry() -> MaintainerRegistry {
    let mut reg = MaintainerRegistry::core();
    mpc_msf::register_snapshot_loaders(&mut reg);
    mpc_matching::register_snapshot_loaders(&mut reg);
    mpc_kconn::register_snapshot_loaders(&mut reg);
    reg
}

/// Runs `roster`.
pub fn run(
    shape: &RosterShape,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    out_dir: &Path,
) -> Outcome {
    let measured = ((seconds * shape.batches_per_second).round() as usize).max(2);
    let stream = gen::random_weighted_stream(
        shape.n,
        measured,
        shape.width,
        shape.p_insert,
        shape.max_weight,
        derive_seed(seed, 0x5eed_0001),
    );
    let batches = &stream.batches;
    let mseed = MAINTAINER_SEED;
    let mut tally = Tally::default();
    let mut out = Outcome::new(shape.params(batches.len()));

    let (mut session, mut setups) = timed_setups(shape.setup_repeats, || shape.session(mseed));
    let mut twins: Option<Vec<(Box<dyn Maintain>, MpcContext)>> = tracer.enabled().then(|| {
        shape
            .maintainers(mseed)
            .into_iter()
            .map(|m| (m, MpcContext::new(shape.config())))
            .collect()
    });

    let mut live = LiveGraph::new(shape.n);
    let mut lp = Loop::new(&session);
    let mut branch_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut serial_sum, mut critical) = (Duration::ZERO, Duration::ZERO);
    let maintainers = session.maintainer_count().max(1);
    for (i, b) in batches.iter().enumerate() {
        tracer.set_batch(i as u64 + 1);
        let root = tracer.open("batch", "", None);
        let before = twins
            .is_some()
            .then(|| session.ctx().stats().rounds_by_op.clone());
        let (r, d) = tracer.time("session.apply", "", root, || {
            session.apply_weighted(b.iter())
        });
        let Some(reports) = tally.op("apply", r) else {
            break;
        };
        lp.applied(
            &session,
            before.as_ref(),
            d,
            reports.len() / maintainers,
            b.len(),
        );
        live.apply_weighted(b);
        if let Some(twins) = twins.as_mut() {
            let rep = tracer.open("replay", "", root);
            let mut slowest = Duration::ZERO;
            for (m, ctx) in twins.iter_mut() {
                let name = m.name();
                let (r, d) =
                    tracer.time("maintainer.apply", name, rep, || m.ingest_weighted(b, ctx));
                tally.op("twin apply", r);
                *branch_ms.entry(name).or_insert(0.0) += ms(d);
                serial_sum += d;
                slowest = slowest.max(d);
            }
            critical += slowest;
            tracer.close(rep);
        }

        // Ask point: every question through the fan-out, then the
        // oracle, outside the timed region.
        let mut answers = Vec::with_capacity(ROSTER_QUERIES.len());
        let mut point = Duration::ZERO;
        for q in &ROSTER_QUERIES {
            let kind = crate::query_kind(q);
            let (r, d) = tracer.time("session.ask", kind, root, || session.ask_all(q));
            point += d;
            lp.asked(kind, d);
            answers.push(r);
        }
        lp.ask_point(point);
        check_answers(shape, &live, answers, &mut tally);
        tracer.close(root);
        if probe_after(i, batches.len(), shape.setup_probes) {
            setups.push(time_setup(|| shape.session(mseed)));
        }
    }
    lp.end_to_end(&session, &setups, &mut out.metrics);
    out.report.push(format!(
        "{}; set-up median {:.4} s of {:.4?}",
        lp.summary(live.len()),
        median(&setups),
        setups
    ));

    if twins.is_some() {
        let apply_total = lp.apply_total_ms();
        let workers = shape.workers as f64;
        let serial = ms(serial_sum);
        let crit = ms(critical);
        let ideal = crit.max(serial / workers);
        let efficiency = ratio(serial, apply_total * workers);
        lp.session_layers(&session, &mut out.layers);
        let l = &mut out.layers;
        l.set("session.self_ms", apply_total - ideal, "ms");
        l.set("executor.serial_sum_ms", serial, "ms");
        l.set("executor.critical_path_ms", crit, "ms");
        l.set("executor.parallel_efficiency", efficiency, "ratio");
        for (name, v) in &branch_ms {
            l.set(format!("maintainer.{name}.apply_ms"), *v, "ms");
        }
        let share = |x: f64| 100.0 * ratio(x, apply_total);
        out.report.push(format!(
            "layer breakdown (share of session.apply_ms = {apply_total:.1} ms at {} workers):",
            shape.workers
        ));
        for (name, v) in &branch_ms {
            out.report.push(format!(
                "  maintainer {name:<24} {v:>10.1} ms {:>6.1}% (serial work)",
                share(*v)
            ));
        }
        out.report.push(format!(
            "  executor.critical_path_ms {crit:.1} ms ({:.1}%), serial_sum/workers {:.1} ms \
             ({:.1}%), parallel efficiency {efficiency:.3}",
            share(crit),
            serial / workers,
            share(serial / workers)
        ));
        out.report.push(format!(
            "  session self (fan-out, fork/replay, audit, scheduling) {:.1} ms ({:.1}%); \
             critical path <= session.apply_ms: {}",
            apply_total - ideal,
            share(apply_total - ideal),
            crit <= apply_total
        ));
        finish_session(&mut session, &mut out, &mut tally, None);
    } else {
        let durability = Durability {
            registry: registry(),
            path: out_dir.join(format!("roster-{seed}.snap")),
            probes: ROSTER_QUERIES.to_vec(),
            workers: shape.workers,
        };
        finish_session(&mut session, &mut out, &mut tally, Some(durability));
    }
    out.tally = tally;
    out
}

/// Checks one ask point's answers against the oracle.
fn check_answers(
    shape: &RosterShape,
    live: &LiveGraph,
    answers: Vec<Result<Vec<(usize, QueryResponse)>, mpc_sim::MpcStreamError>>,
    tally: &mut Tally,
) {
    let truth = live.truth();
    for (q, r) in ROSTER_QUERIES.iter().zip(answers) {
        let Some(answers) = tally.op("ask_all", r) else {
            continue;
        };
        tally.expect(!answers.is_empty(), || {
            format!("{q}: no maintainer answered")
        });
        for (id, a) in answers {
            let ok = match q {
                QueryRequest::ComponentCount => a.as_count() == Some(truth.components),
                QueryRequest::ForestWeight => a
                    .as_weight()
                    .is_some_and(|w| forest_weight_ok(w, live.msf_weight(), shape.eps)),
                QueryRequest::MatchingSize => a
                    .as_count()
                    .is_some_and(|s| matching_size_ok(s, live.greedy_matching())),
                QueryRequest::IsBipartite => a.as_bool() == Some(live.is_bipartite()),
                _ => unreachable!("only the roster queries are asked"),
            };
            tally.expect(ok, || format!("{q}: maintainer {id} answered {a}"));
        }
    }
}
