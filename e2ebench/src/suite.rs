//! `suite-stream`: the paper's 113-workload suite streamed through one
//! `Misam` system (matrix → features → design → reconfiguration verdict
//! → execution), with free switching as in Fig 10.
//!
//! A round is a cold pass on emptied global memo stores followed by a
//! warm pass over the same stream; both start from the same loaded
//! design.

use crate::common::{self, median, secs, Outcome};
use misam::pipeline::{ExecutionReport, Misam};
use misam::training::{self, LatencyPredictor, TrainedSelector};
use misam::workloads::{self, Workload};
use misam::{Dataset, Objective};
use misam_features::{PairFeatures, TileConfig};
use misam_oracle::cache::MemoCache;
use misam_oracle::{profiles, Fingerprint};
use misam_recon::cost::ReconfigCost;
use misam_recon::engine::{Decision, LatencyModel, ReconfigEngine};
use misam_sim::{DesignId, Operand, SimReport};
use std::time::{Duration, Instant};

/// Row scale of the HS (SuiteSparse-class) matrices relative to their
/// published size.
const HS_SCALE: f64 = 0.08;
/// Corpus sizes the selector and latency predictor are trained on.
const CLASSIFIER_SAMPLES: usize = 2400;
const LATENCY_SAMPLES: usize = 4800;
/// The engine's switch threshold (the paper's 20 %).
const THRESHOLD: f64 = 0.2;
/// The design loaded before every pass.
const START: DesignId = DesignId::D1;

struct System {
    misam: Misam,
    selector: TrainedSelector,
    predictor: LatencyPredictor,
    suite: Vec<Workload>,
}

fn setup(seed: u64) -> System {
    let cls = Dataset::generate_with_threads(CLASSIFIER_SAMPLES, seed, 1);
    let lat = Dataset::generate_with_threads(LATENCY_SAMPLES, seed ^ 0x1a7e, 1);
    let selector = training::train_selector(&cls, Objective::Latency, seed).selector;
    let predictor = training::train_latency_predictor(&lat, seed).predictor;
    let suite = workloads::suite_with_threads(HS_SCALE, seed, 1);
    let misam = Misam::from_parts(
        selector.clone(),
        predictor.clone(),
        ReconfigCost::zero(),
        THRESHOLD,
        TileConfig::default(),
    );
    System { misam, selector, predictor, suite }
}

/// One untraced pass over the suite from the start design.
fn pass(sys: &mut System) -> (f64, Vec<ExecutionReport>) {
    sys.misam.preload(START);
    let t = Instant::now();
    let reports: Vec<ExecutionReport> =
        sys.suite.iter().map(|w| sys.misam.execute(&w.a, w.b_operand())).collect();
    (secs(t), reports)
}

fn verdicts(reports: &[ExecutionReport]) -> Vec<(DesignId, Decision)> {
    reports.iter().map(|r| (r.predicted, r.decision)).collect()
}

pub fn run(seed: u64, window: Duration) -> Outcome {
    let mut out = Outcome::default();
    // Warm-up round: page in the suite and the code.
    let warm_up = |sys: &mut System| {
        common::clear_global_caches();
        pass(sys);
        pass(sys);
    };
    let mut cold_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut reference: Option<Vec<ExecutionReport>> = None;
    let mut drifted_rounds = 0usize;
    let round = |sys: &mut System| {
        common::clear_global_caches();
        let (c, cold) = pass(sys);
        let (w, warm) = pass(sys);
        cold_s.push(c);
        warm_s.push(w);
        let same = verdicts(&warm) == verdicts(&cold)
            && reference.as_ref().is_none_or(|r| verdicts(r) == verdicts(&cold));
        drifted_rounds += usize::from(!same);
        reference.get_or_insert(cold);
    };
    let (rounds, setup_s, sys) = common::rounds_with_setups(window, || setup(seed), warm_up, round);
    let n = sys.suite.len();
    let a_nnz: usize = sys.suite.iter().map(|w| w.a.nnz()).sum();
    eprintln!("suite-stream: {n} workloads, {a_nnz} nnz in A (hs scale {HS_SCALE})");
    let reports = reference.expect("at least one round");
    out.attempted = (rounds * 2 * n) as u64;
    out.check(drifted_rounds == 0, || {
        format!(
            "{drifted_rounds} rounds where a warm pass or a later cold pass decided differently"
        )
    });

    let stream_sim_s = check_reports(&mut out, &sys, &reports);
    let cold = median(&cold_s);
    let warm = median(&warm_s);
    let rates: Vec<f64> =
        cold_s.iter().zip(&warm_s).map(|(c, w)| (2 * n) as f64 / (c + w)).collect();
    eprintln!("cold pass s {cold_s:.3?}, warm pass s {warm_s:.3?}");
    eprintln!(
        "rounds {rounds}: decide_cold_wl_per_s {:.1}, decide_warm_wl_per_s {:.1}, \
         stream_sim_s {stream_sim_s:.6}",
        n as f64 / cold,
        n as f64 / warm
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
    out.metric("ops_per_s", median(&rates), "1/s");
    out.metric("stage1_us", cold / n as f64 * 1e6, "us");
    out.metric("stage2_us", warm / n as f64 * 1e6, "us");
    out.metric("stage3_us", stream_sim_s / n as f64 * 1e6, "us");
    out
}

/// The correctness checks on one cold pass; returns `stream_sim_s`.
fn check_reports(out: &mut Outcome, sys: &System, reports: &[ExecutionReport]) -> f64 {
    let cost = ReconfigCost::zero();
    let mut loaded = START;
    let mut stream_sim_s = 0.0;
    let mut best_sum_s = 0.0;
    let mut best_predicted = 0usize;
    for (w, r) in sys.suite.iter().zip(reports) {
        let b = w.b_operand();
        // Direct simulation: no fingerprint, profile store or memo.
        let direct: Vec<SimReport> =
            DesignId::ALL.iter().map(|&d| misam_sim::simulate(&w.a, b, d)).collect();
        let executed = &direct[r.decision.execute_on.index()];
        out.check(common::same_bits(executed, &r.sim), || {
            format!("{}: executed report differs from direct simulation", w.name)
        });
        stream_sim_s += r.sim.time_s + r.decision.reconfig_time_s;
        let best = (0..4).min_by(|&x, &y| direct[x].time_s.total_cmp(&direct[y].time_s));
        let best = best.expect("four designs");
        best_sum_s += direct[best].time_s;
        best_predicted += usize::from(r.predicted.index() == best);

        out.check(sys.selector.select(&r.features) == r.predicted, || {
            format!("{}: predicted design is not the selector's choice", w.name)
        });
        let verdict = check_verdict(loaded, r, &sys.predictor, &cost);
        out.check(verdict.is_ok(), || format!("{}: {}", w.name, verdict.unwrap_err()));
        loaded = r.decision.execute_on;

        let shape = check_shape(&w.a, b, &r.features);
        out.check(shape.is_ok(), || format!("{}: {}", w.name, shape.unwrap_err()));
    }
    eprintln!(
        "stream_sim_s {stream_sim_s:.6} vs per-workload best {best_sum_s:.6}; \
         {best_predicted}/{} predictions best",
        reports.len()
    );
    out.check(stream_sim_s >= best_sum_s, || {
        format!("stream_sim_s {stream_sim_s} beats the per-workload minima {best_sum_s}")
    });
    stream_sim_s
}

/// The engine's rule, recomputed from the latency predictor, the cost
/// model and the threshold: stay when the predicted design is loaded,
/// move freely within a bitstream, and otherwise switch only when the
/// predicted gain is positive and overhead < threshold × gain. The
/// decision must match the recomputed one in every field, including
/// both predicted latencies.
fn check_verdict(
    loaded: DesignId,
    r: &ExecutionReport,
    predictor: &LatencyPredictor,
    cost: &ReconfigCost,
) -> Result<(), String> {
    let p = r.predicted;
    let lat_new = predictor.predict_seconds(&r.features, p);
    let verdict = |execute_on, reconfigured, reconfig_time_s, lat, lat_cur| Decision {
        execute_on,
        reconfigured,
        reconfig_time_s,
        predicted_latency_s: lat,
        predicted_current_latency_s: lat_cur,
    };
    let expected = if p == loaded {
        verdict(loaded, false, 0.0, lat_new, lat_new)
    } else {
        let lat_cur = predictor.predict_seconds(&r.features, loaded);
        let overhead = cost.full_time_s(p.bitstream());
        let gain = lat_cur - lat_new;
        if p.bitstream() == loaded.bitstream() {
            verdict(p, false, 0.0, lat_new, lat_cur)
        } else if gain > 0.0 && overhead < THRESHOLD * gain {
            verdict(p, true, overhead, lat_new, lat_cur)
        } else {
            verdict(loaded, false, 0.0, lat_cur, lat_cur)
        }
    };
    if r.decision == expected {
        Ok(())
    } else {
        Err(format!(
            "verdict {:?} after {loaded}, the engine's rule gives {expected:?}",
            r.decision
        ))
    }
}

/// Feature shape entries against counts taken from the CSR arrays.
fn check_shape(
    a: &misam_sparse::CsrMatrix,
    b: Operand<'_>,
    f: &PairFeatures,
) -> Result<(), String> {
    let counts = |m: &misam_sparse::CsrMatrix| {
        let rows = m.row_ptr().len() - 1;
        let nnz = m.col_idx().len();
        (rows, m.cols(), nnz, *m.row_ptr().last().expect("row_ptr is never empty"))
    };
    // Density is stored as `1 - sparsity`, so it may differ from the
    // count ratio in the last bits.
    let dense_ok = |d: f64, nnz: usize, rows: usize, cols: usize| {
        (d - nnz as f64 / (rows * cols) as f64).abs() <= 1e-12
    };
    let (rows, cols, nnz, last) = counts(a);
    let a_ok = f.a.rows == rows
        && f.a.cols == cols
        && f.a.nnz == nnz
        && last == nnz
        && dense_ok(f.a.density(), nnz, rows, cols);
    let b_ok = match b {
        Operand::Sparse(bm) => {
            let (rows, cols, nnz, last) = counts(bm);
            f.b.rows == rows
                && f.b.cols == cols
                && f.b.nnz == nnz
                && last == nnz
                && dense_ok(f.b.density(), nnz, rows, cols)
        }
        Operand::Dense { rows, cols } => {
            f.b.rows == rows && f.b.cols == cols && f.b.nnz == rows * cols
        }
    };
    if a_ok && b_ok {
        Ok(())
    } else {
        Err(format!("feature shape {:?}/{:?} disagrees with the CSR arrays", f.a, f.b))
    }
}

/// Layer seconds and counts of one traced round (cold + warm pass).
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    features: f64,
    fingerprint: f64,
    select: f64,
    decide: f64,
    profile_store: f64,
    fold: f64,
    round: f64,
    memo_hits: u64,
    memo_misses: u64,
    profile_hits: u64,
    profile_misses: u64,
    reconfigs: u64,
}

/// `Misam::execute` rebuilt from the layers' public functions, each
/// call timed: features → select → decide → fingerprint → memo →
/// (profile store → simulation fold).
fn traced_pass(
    sys: &System,
    engine: &mut ReconfigEngine<LatencyPredictor>,
    memo: &MemoCache<SimReport>,
    lay: &mut Layers,
) -> Vec<(Decision, SimReport)> {
    let tile = TileConfig::default();
    let store = profiles::global();
    engine.force_load(START);
    let mut out = Vec::with_capacity(sys.suite.len());
    for w in &sys.suite {
        let b = w.b_operand();
        let t0 = Instant::now();
        let features = match b {
            Operand::Sparse(bm) => PairFeatures::extract(&w.a, bm, &tile),
            Operand::Dense { rows, cols } => PairFeatures::extract_dense_b(&w.a, rows, cols, &tile),
        };
        let t1 = Instant::now();
        let predicted = sys.selector.select(&features);
        let t2 = Instant::now();
        let decision = engine.decide(&features, predicted);
        let t3 = Instant::now();
        let fp = Fingerprint::of_pair(&w.a, b);
        let t4 = Instant::now();
        lay.features += (t1 - t0).as_secs_f64();
        lay.select += (t2 - t1).as_secs_f64();
        lay.decide += (t3 - t2).as_secs_f64();
        lay.fingerprint += (t4 - t3).as_secs_f64();
        let sim = memo.get_or_compute(fp, decision.execute_on.index(), || {
            let t5 = Instant::now();
            let ap = store.of_matrix(&w.a);
            let bp = store.of_operand(b);
            let t6 = Instant::now();
            let r = misam_sim::simulate_profiled(&w.a, &ap, b, bp.as_deref(), decision.execute_on);
            lay.profile_store += (t6 - t5).as_secs_f64();
            lay.fold += secs(t6);
            r
        });
        out.push((decision, sim));
    }
    out
}

pub fn trace(seed: u64, window: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut sys = setup(seed);
    let n = sys.suite.len();
    let mut engine = ReconfigEngine::new(sys.predictor.clone(), ReconfigCost::zero(), THRESHOLD);
    let memo = MemoCache::<SimReport>::new();
    let store = profiles::global();

    let mut untraced = Vec::new();
    let mut traced: Vec<Layers> = Vec::new();
    let mut mismatched = 0usize;
    let rounds = common::rounds_for(window, || {
        common::clear_global_caches();
        let (c, cold) = pass(&mut sys);
        let (w, _) = pass(&mut sys);
        untraced.push(c + w);

        common::clear_global_caches();
        memo.clear();
        let reconfigs = engine.reconfig_count();
        let mut lay = Layers::default();
        let t = Instant::now();
        let replica = traced_pass(&sys, &mut engine, &memo, &mut lay);
        let replica_warm = traced_pass(&sys, &mut engine, &memo, &mut lay);
        lay.round = secs(t);
        let (m, p) = (memo.stats(), store.stats());
        (lay.memo_hits, lay.memo_misses) = (m.hits, m.misses);
        (lay.profile_hits, lay.profile_misses) = (p.hits, p.misses);
        lay.reconfigs = engine.reconfig_count() - reconfigs;
        traced.push(lay);

        let agrees = |rep: &[(Decision, SimReport)]| {
            rep.len() == cold.len()
                && rep
                    .iter()
                    .zip(&cold)
                    .all(|((d, s), r)| *d == r.decision && common::same_bits(s, &r.sim))
        };
        mismatched += usize::from(!agrees(&replica) || !agrees(&replica_warm));
    });
    out.attempted = (rounds * 4 * n) as u64;
    out.check(mismatched == 0, || {
        format!("{mismatched} traced rounds decided or simulated unlike Misam::execute")
    });

    let k = traced.len() as f64;
    let mean = |f: fn(&Layers) -> f64| traced.iter().map(f).sum::<f64>() / k;
    let count = |f: fn(&Layers) -> u64| traced.iter().map(f).sum::<u64>() as f64 / k;
    let round = mean(|l| l.round);
    let layers = [
        ("features.extract_s", mean(|l| l.features)),
        ("oracle.fingerprint_s", mean(|l| l.fingerprint)),
        ("mlkit.select_s", mean(|l| l.select)),
        ("recon.decide_s", mean(|l| l.decide)),
        ("oracle.profile_store_s", mean(|l| l.profile_store)),
        ("sim.fold_s", mean(|l| l.fold)),
    ];
    let unaccounted = round - layers.iter().map(|(_, v)| v).sum::<f64>();
    out.check(unaccounted >= 0.0, || format!("layer seconds exceed the round: {unaccounted}"));
    out.metric("suite.traced_round_s", round, "s");
    for (name, v) in layers {
        out.metric(name, v, "s");
    }
    out.metric("suite.unaccounted_s", unaccounted, "s");
    out.metric("oracle.memo_hits", count(|l| l.memo_hits), "count");
    out.metric("oracle.memo_misses", count(|l| l.memo_misses), "count");
    out.metric("oracle.profile_hits", count(|l| l.profile_hits), "count");
    out.metric("oracle.profile_misses", count(|l| l.profile_misses), "count");
    out.metric("recon.reconfigs", count(|l| l.reconfigs), "count");
    let base = untraced.iter().sum::<f64>() / untraced.len() as f64;
    out.metric("suite.trace_overhead_pct", (round / base - 1.0) * 100.0, "%");
    out
}
