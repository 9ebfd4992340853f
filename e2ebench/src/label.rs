//! `label-corpus`: the standard corpus mix labeled on every core, once
//! through a fresh cycle-sim oracle and once through the tiered oracle
//! (surrogate trained in set-up, sim fallback), then a window of served
//! generator specs relabeled and refit as the online learner does.

use crate::common::{self, median, secs, Outcome};
use misam::dataset::random_pair_lazy;
use misam::persist::ModelBundle;
use misam::training;
use misam::{Dataset, Objective};
use misam_features::{PairFeatures, TileConfig};
use misam_learn::{label_sample_via, refit_bundle, LabelVia, LabeledSample};
use misam_oracle::{
    profiles, Executor, FpgaSim, LazyLabeler, RegForestParams, SimOracle, SurrogateModel,
    SurrogateTrainParams, TieredOracle,
};
use misam_recon::cost::ReconfigCost;
use misam_serve::{GenSpec, TapSample};
use misam_sim::{DesignId, Operand, SimReport};
use misam_sparse::{LazyMatrix, LazyOperand};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pairs labeled per corpus pass.
const CORPUS_PAIRS: usize = 5000;
/// Corpus the surrogate and the served base bundle are trained on in
/// set-up.
const SURROGATE_SAMPLES: usize = 8000;
/// Seed of that corpus. It does not follow `--seed`: the gate's
/// calibration on a seed-drawn corpus moved the tiered fallback share
/// from 0.62 to 0.94 between seeds, so the tiered rate followed the
/// training draw rather than the code. The seed draws every labeled
/// corpus and spec window instead.
const TRAIN_SEED: u64 = 0x5eed;
/// Served generator specs relabeled and refit per round (a multiple of
/// [`SPEC_PERIOD`]).
const WINDOW_SPECS: usize = 768;
/// Corpus pairs checked against a direct simulation of the
/// materialized operands.
const DIRECT_CHECK_PAIRS: usize = 48;
/// Labels the learner relearns are relabeled and compared with a direct
/// simulation for this many window specs.
const DIRECT_CHECK_SPECS: usize = 16;
/// The salt `Dataset::generate_with_threads_via` folds into the corpus
/// seed before deriving sample `i`'s seed as `splitmix(seed ^ salt, i)`;
/// the traced replica derives the same per-pair seeds, and its labels
/// are checked against the program's corpus.
const CORPUS_SEED_SALT: u64 = 0x0da7_a5e7;
const GEN_KINDS: [&str; 6] = ["uniform", "power-law", "banded", "pruned-dnn", "regular", "circuit"];

struct Setup {
    model: Arc<SurrogateModel>,
    base: ModelBundle,
    window: Vec<TapSample>,
}

/// Seed of round `round`'s corpus. Every round labels a fresh draw, so
/// a run's medians cover many corpora rather than one seed's draw.
fn corpus_seed(seed: u64, round: usize) -> u64 {
    splitmix(seed ^ 0xc0_7905, round as u64)
}

/// The `i`-th served generator spec, as a client would send in
/// `PredictGen`. Family, shape, density and dense width cycle through
/// fixed ladders, so every run of [`SPEC_PERIOD`] consecutive specs has
/// the same mix; the seed draws each operand's generator seed.
pub fn gen_spec(i: usize, rng: &mut StdRng) -> GenSpec {
    const SIZES: [usize; 4] = [64, 128, 192, 256];
    GenSpec {
        kind: GEN_KINDS[i % GEN_KINDS.len()].to_string(),
        rows: SIZES[i % 4],
        cols: SIZES[(i / 2 + 1) % 4],
        density: [0.02, 0.04, 0.06, 0.08][(i / 3) % 4],
        seed: rng.gen(),
        dense_cols: [32, 64, 128][(i / 4) % 3],
    }
}

/// Length of the cycle every [`gen_spec`] ladder repeats in.
pub const SPEC_PERIOD: usize = 24;

fn setup(seed: u64) -> Setup {
    let ds = Dataset::generate_with_threads(SURROGATE_SAMPLES, TRAIN_SEED, 1);
    let params = SurrogateTrainParams {
        forest: RegForestParams {
            n_trees: 16,
            tree: misam_mlkit::regression::RegParams { max_depth: 10, ..Default::default() },
            ..Default::default()
        },
        ..Default::default()
    };
    let model = Arc::new(training::train_surrogate(&ds, &params).into_model());
    let base = ModelBundle::new(
        training::train_selector(&ds, Objective::Latency, TRAIN_SEED).selector,
        training::train_latency_predictor(&ds, TRAIN_SEED).predictor,
        0.2,
        ReconfigCost::default(),
        TileConfig::default(),
    );
    let window = served_window(&base, seed, 0);
    Setup { model, base, window }
}

/// The tiered oracle as the corpus pass uses it: fresh memo, the
/// set-up surrogate installed.
fn tiered(model: &Arc<SurrogateModel>) -> TieredOracle {
    let t = TieredOracle::new();
    t.install(Arc::clone(model));
    t
}

/// Round `round`'s window of served specs as the learner's tap would
/// hold them: spec, served features and the base bundle's prediction.
fn served_window(base: &ModelBundle, seed: u64, round: usize) -> Vec<TapSample> {
    let tile = base.tile_config();
    let mut rng = StdRng::seed_from_u64(splitmix(seed ^ 0x3a9, round as u64));
    (0..WINDOW_SPECS)
        .map(|i| {
            let spec = gen_spec(i, &mut rng);
            let a = spec.build().expect("generated specs are valid");
            let features =
                PairFeatures::extract_dense_b(&a, a.cols(), spec.dense_cols, &tile).to_vector();
            let predicted = base.selector.select_vector(&features);
            TapSample { features, predicted, spec: Some(spec) }
        })
        .collect()
}

/// One relearn window: relabel every spec, then refit the bundle.
fn relearn(window: &[TapSample], base: &ModelBundle, seed: u64) -> (Vec<LabeledSample>, u64) {
    let mut failed = 0;
    let labeled: Vec<LabeledSample> = window
        .iter()
        .filter_map(|t| {
            let r = label_sample_via(t, Objective::Latency, LabelVia::Sim);
            failed += u64::from(r.is_err());
            r.ok()
        })
        .collect();
    std::hint::black_box(refit_bundle(&labeled, Objective::Latency, seed, base));
    (labeled, failed)
}

pub fn run(seed: u64, window: Duration) -> Outcome {
    let mut out = Outcome::default();
    let threads = common::nproc();
    let cseed = corpus_seed(seed, 0);

    // Warm-up (untimed): one sim corpus pass and one relearn window.
    let warm_up = |s: &mut Setup| {
        common::clear_global_caches();
        Dataset::generate_with_threads_via(CORPUS_PAIRS, cseed, threads, SimOracle::new(FpgaSim));
        relearn(&s.window, &s.base, seed);
    };

    let (mut sim_s, mut tiered_s, mut relearn_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<(Dataset, Dataset, misam_oracle::TieredStats)> = None;
    let (mut materialized, mut failed) = (0u64, 0u64);
    let mut labeled = Vec::new();
    let mut round = 0;
    let label_round = |s: &mut Setup| {
        let cseed = corpus_seed(seed, round);
        let specs = served_window(&s.base, seed, round);
        misam_sparse::lazy::reset_materialization_stats();
        profiles::global().clear();
        let oracle = SimOracle::new(FpgaSim);
        let t = Instant::now();
        let sim_ds = Dataset::generate_with_threads_via(CORPUS_PAIRS, cseed, threads, &oracle);
        sim_s.push(secs(t));

        profiles::global().clear();
        let tier = tiered(&s.model);
        let t = Instant::now();
        let tiered_ds = Dataset::generate_with_threads_via(CORPUS_PAIRS, cseed, threads, &tier);
        tiered_s.push(secs(t));
        materialized += misam_sparse::lazy::materialization_stats().materialized;

        common::clear_global_caches();
        let t = Instant::now();
        let (l, f) = relearn(&specs, &s.base, seed);
        relearn_s.push(secs(t));
        failed += f;

        if reference.is_none() {
            reference = Some((sim_ds, tiered_ds, tier.stats()));
            labeled = l;
        }
        round += 1;
    };
    let (rounds, setup_s, s) =
        common::rounds_with_setups(window, || setup(seed), warm_up, label_round);
    let (sim_ds, tiered_ds, tstats) = reference.expect("at least one round");
    out.attempted = (rounds * (2 * CORPUS_PAIRS + WINDOW_SPECS)) as u64;
    out.failed = failed;
    out.check(materialized == 0, || {
        format!("corpus labeling materialized {materialized} lazy matrices")
    });

    // The checks run on the first round's corpus and window.
    check_corpus(&mut out, &s, cseed, &sim_ds, &tiered_ds, &tstats);
    check_relearn(&mut out, &s, &labeled);

    let n = CORPUS_PAIRS as f64;
    let (sim, tier, rel) = (median(&sim_s), median(&tiered_s), median(&relearn_s));
    let rates: Vec<f64> = (0..sim_s.len())
        .map(|i| (2 * CORPUS_PAIRS + WINDOW_SPECS) as f64 / (sim_s[i] + tiered_s[i] + relearn_s[i]))
        .collect();
    eprintln!("sim s {sim_s:.3?}, tiered s {tiered_s:.3?}, relearn s {relearn_s:.3?}");
    eprintln!(
        "rounds {rounds} on {threads} threads: label_sim_pairs_per_s {:.0}, \
         label_tiered_pairs_per_s {:.0} (fallback {:.3}), relearn_specs_per_s {:.0}",
        n / sim,
        n / tier,
        tstats.fallback_rate(),
        WINDOW_SPECS as f64 / rel
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
    out.metric("ops_per_s", median(&rates), "1/s");
    out.metric("stage1_us", sim / n * 1e6, "us");
    out.metric("stage2_us", tier / n * 1e6, "us");
    out.metric("stage3_us", rel / WINDOW_SPECS as f64 * 1e6, "us");
    out
}

/// Labels through a fresh sim oracle and, for every pair it sees, runs
/// the materialized operands through `misam_sim::simulate` directly.
struct DirectCheck {
    oracle: SimOracle<FpgaSim>,
    direct: Mutex<Vec<(Vec<SimReport>, Vec<SimReport>)>>,
}

impl LazyLabeler for DirectCheck {
    fn label_all_lazy(&self, a: &LazyMatrix, b: LazyOperand<'_>) -> Vec<SimReport> {
        let reports = self.oracle.execute_all_lazy(a, b);
        let b_op = match b {
            LazyOperand::Sparse(m) => Operand::Sparse(m.materialize()),
            LazyOperand::Dense { rows, cols } => Operand::Dense { rows, cols },
        };
        let direct =
            DesignId::ALL.iter().map(|&d| misam_sim::simulate(a.materialize(), b_op, d)).collect();
        self.direct.lock().expect("no panics while held").push((reports.clone(), direct));
        reports
    }
}

fn argmin(xs: &[f64; 4]) -> usize {
    (0..4).min_by(|&x, &y| xs[x].total_cmp(&xs[y])).expect("four designs")
}

fn check_corpus(
    out: &mut Outcome,
    s: &Setup,
    cseed: u64,
    sim_ds: &Dataset,
    tiered_ds: &Dataset,
    tstats: &misam_oracle::TieredStats,
) {
    let serial =
        Dataset::generate_with_threads_via(CORPUS_PAIRS, cseed, 1, SimOracle::new(FpgaSim));
    out.check(serial.to_csv() == sim_ds.to_csv(), || {
        "sim corpus differs between 1 and nproc threads".into()
    });

    let dc = DirectCheck { oracle: SimOracle::new(FpgaSim), direct: Mutex::new(Vec::new()) };
    let prefix = Dataset::generate_with_threads_via(DIRECT_CHECK_PAIRS, cseed, 1, &dc);
    let direct = dc.direct.into_inner().expect("no panics while held");
    out.check(direct.len() == DIRECT_CHECK_PAIRS, || {
        format!("{} of {DIRECT_CHECK_PAIRS} pairs reached the direct check", direct.len())
    });
    for (i, (sample, (reports, direct))) in prefix.samples.iter().zip(&direct).enumerate() {
        out.check(*sample == sim_ds.samples[i], || format!("pair {i}: re-labeled sample differs"));
        out.check(reports.iter().zip(direct).all(|(r, d)| common::same_bits(r, d)), || {
            format!("pair {i}: oracle reports differ from direct simulation")
        });
        let times: [f64; 4] = std::array::from_fn(|k| direct[k].time_s);
        out.check(sample.label(Objective::Latency) == argmin(&times), || {
            format!("pair {i}: label is not the argmin of the simulated times")
        });
    }

    let (mut fallback, mut agree) = (0u64, 0usize);
    for (i, (sm, tm)) in sim_ds.samples.iter().zip(&tiered_ds.samples).enumerate() {
        let pred = s.model.prediction(&sm.features);
        if !s.model.confident(pred.margin_log10) {
            fallback += 1;
            out.check(
                common::same_bits(&sm.times_s, &tm.times_s)
                    && common::same_bits(&sm.energies_j, &tm.energies_j),
                || format!("pair {i}: tiered fallback differs from the sim label"),
            );
        }
        agree += usize::from(
            sm.label(Objective::Latency) == tm.label(Objective::Latency)
                && sm.label(Objective::Energy) == tm.label(Objective::Energy),
        );
    }
    out.check(fallback == tstats.fallback_pairs, || {
        format!(
            "{fallback} gate fallbacks recomputed, tiered oracle counted {}",
            tstats.fallback_pairs
        )
    });
    let share = agree as f64 / sim_ds.samples.len() as f64;
    eprintln!("tiered selection agreement {agree}/{} = {share:.4}", sim_ds.samples.len());
    out.check(share >= 0.99, || format!("tiered selection agreement {share:.4} < 0.99"));
}

/// The learner's labels against a direct simulation of the rebuilt
/// operand.
fn check_relearn(out: &mut Outcome, s: &Setup, labeled: &[LabeledSample]) {
    out.check(labeled.len() == s.window.len(), || "some window specs failed to label".into());
    for (t, l) in s.window.iter().zip(labeled).take(DIRECT_CHECK_SPECS) {
        let spec = t.spec.as_ref().expect("window samples carry specs");
        let a = spec.build().expect("generated specs are valid");
        let b = Operand::Dense { rows: a.cols(), cols: spec.dense_cols };
        let times: [f64; 4] =
            std::array::from_fn(|k| misam_sim::simulate(&a, b, DesignId::ALL[k]).time_s);
        out.check(
            common::same_bits(&times, &l.times_s) && l.oracle.index() == argmin(&times),
            || format!("spec {spec:?}: relearn label differs from direct simulation"),
        );
    }
}

/// Busy nanoseconds per layer, summed over corpus workers.
#[derive(Default)]
struct Busy {
    structure: AtomicU64,
    features: AtomicU64,
    label: AtomicU64,
}

fn add(c: &AtomicU64, from: Instant, to: Instant) {
    c.fetch_add((to - from).as_nanos() as u64, Ordering::Relaxed);
}

/// The corpus pipeline rebuilt from public functions (draw a lazy pair,
/// extract structural features, label), on `threads` workers; with
/// `busy`, every call is timed. Returns each pair's four times.
fn replica_pass<L: LazyLabeler>(
    cseed: u64,
    threads: usize,
    labeler: &L,
    busy: Option<&Busy>,
) -> Vec<[f64; 4]> {
    let tile = TileConfig::default();
    misam_oracle::pool::par_map_indices(CORPUS_PAIRS, threads, |i| {
        let mut rng = StdRng::seed_from_u64(splitmix(cseed ^ CORPUS_SEED_SALT, i as u64));
        let t0 = busy.map(|_| Instant::now());
        let (a, spec, _) = random_pair_lazy(&mut rng);
        let t1 = busy.map(|_| Instant::now());
        let f = spec.features(&a, &tile).to_vector();
        let t2 = busy.map(|_| Instant::now());
        let reports = labeler.label_all_lazy_with_features(&a, spec.lazy_operand(), &f, &tile);
        if let (Some(b), Some(t0), Some(t1), Some(t2)) = (busy, t0, t1, t2) {
            let t3 = Instant::now();
            add(&b.structure, t0, t1);
            add(&b.features, t1, t2);
            add(&b.label, t2, t3);
        }
        std::array::from_fn(|k| reports[k].time_s)
    })
}

fn splitmix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Layer seconds of one relearn window, rebuilt from public functions:
/// build the spec's operand, label it through the global oracle, refit.
fn relearn_replica(s: &Setup, seed: u64, timed: bool) -> ([f64; 3], Vec<LabeledSample>) {
    let mut lay = [0.0; 3];
    let clock = || timed.then(Instant::now);
    let mut labeled = Vec::with_capacity(s.window.len());
    for t in &s.window {
        let spec = t.spec.as_ref().expect("window samples carry specs");
        let t0 = clock();
        let a = spec.build().expect("generated specs are valid");
        let t1 = clock();
        let b = Operand::Dense { rows: a.cols(), cols: spec.dense_cols };
        let reports = misam_oracle::global().execute_all(&a, b);
        let times_s: [f64; 4] = std::array::from_fn(|k| reports[k].time_s);
        let energies_j: [f64; 4] = std::array::from_fn(|k| reports[k].energy_j);
        let oracle = DesignId::from_index(Objective::Latency.best_design(&times_s, &energies_j));
        if let (Some(t0), Some(t1)) = (t0, t1) {
            lay[0] += (t1 - t0).as_secs_f64();
            lay[1] += secs(t1);
        }
        labeled.push(LabeledSample {
            features: t.features.clone(),
            predicted: t.predicted,
            oracle,
            times_s,
            energies_j,
            kind: spec.kind.clone(),
        });
    }
    let t = clock();
    std::hint::black_box(refit_bundle(&labeled, Objective::Latency, seed, &s.base));
    if let Some(t) = t {
        lay[2] = secs(t);
    }
    (lay, labeled)
}

/// Per-round layer figures of the traced label replica.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    structure_gen: f64,
    structural: f64,
    sim_label: f64,
    tiered_label: f64,
    served: u64,
    fallback: u64,
    materialized: u64,
    gen_build: f64,
    learn_label: f64,
    refit: f64,
    round: f64,
}

/// What one replica round labeled: each corpus pair's four times from
/// the sim and the tiered pass, and the relearn window's labels.
struct Labels {
    sim: Vec<[f64; 4]>,
    tiered: Vec<[f64; 4]>,
    window: Vec<LabeledSample>,
}

/// Each sample's four times.
fn times_of(ds: &Dataset) -> Vec<[f64; 4]> {
    ds.samples.iter().map(|x| x.times_s).collect()
}

/// One replica round: sim corpus pass, tiered corpus pass, relearn
/// window. Untraced (`traced = false`) it runs the same calls without
/// clocks, as the base of the tracing overhead.
fn replica_round(s: &Setup, seed: u64, traced: bool) -> (Layers, Labels) {
    let threads = common::nproc();
    let cseed = corpus_seed(seed, 0);
    let (busy_sim, busy_tier) = (Busy::default(), Busy::default());
    let on = |b| traced.then_some(b);
    misam_sparse::lazy::reset_materialization_stats();
    let t = Instant::now();
    profiles::global().clear();
    let sim = replica_pass(cseed, threads, &SimOracle::new(FpgaSim), on(&busy_sim));
    profiles::global().clear();
    let tier = tiered(&s.model);
    let tiered_times = replica_pass(cseed, threads, &tier, on(&busy_tier));
    let materialized = misam_sparse::lazy::materialization_stats().materialized;
    common::clear_global_caches();
    let (lay, labeled) = relearn_replica(s, seed, traced);
    let round = secs(t);
    let ns = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64 * 1e-9;
    let st = tier.stats();
    let layers = Layers {
        // Per corpus pass: the sim and tiered passes draw the same pairs.
        structure_gen: (ns(&busy_sim.structure) + ns(&busy_tier.structure)) / 2.0,
        structural: (ns(&busy_sim.features) + ns(&busy_tier.features)) / 2.0,
        sim_label: ns(&busy_sim.label),
        tiered_label: ns(&busy_tier.label),
        served: st.surrogate_pairs,
        fallback: st.fallback_pairs,
        materialized,
        gen_build: lay[0],
        learn_label: lay[1],
        refit: lay[2],
        round,
    };
    (layers, Labels { sim, tiered: tiered_times, window: labeled })
}

pub fn trace(seed: u64, window: Duration) -> Outcome {
    let mut out = Outcome::default();
    let s = setup(seed);
    let mut untraced = Vec::new();
    let mut traced: Vec<Layers> = Vec::new();
    let mut mismatched = 0usize;

    // The program's own corpus on the replica's seed: the replica's
    // passes must label every pair bit for bit as these do.
    let (cseed, threads) = (corpus_seed(seed, 0), common::nproc());
    common::clear_global_caches();
    let sim_ref = times_of(&Dataset::generate_with_threads_via(
        CORPUS_PAIRS,
        cseed,
        threads,
        SimOracle::new(FpgaSim),
    ));
    profiles::global().clear();
    let tiered_ref = times_of(&Dataset::generate_with_threads_via(
        CORPUS_PAIRS,
        cseed,
        threads,
        tiered(&s.model),
    ));
    // The replica's window labels must be the learner's own.
    let window_ref: Vec<LabeledSample> = s
        .window
        .iter()
        .filter_map(|t| label_sample_via(t, Objective::Latency, LabelVia::Sim).ok())
        .collect();
    let agrees = |l: &Labels| {
        common::same_bits(&l.sim, &sim_ref)
            && common::same_bits(&l.tiered, &tiered_ref)
            && l.window.len() == window_ref.len()
            && l.window
                .iter()
                .zip(&window_ref)
                .all(|(a, b)| a.oracle == b.oracle && common::same_bits(&a.times_s, &b.times_s))
    };

    replica_round(&s, seed, false);
    let rounds = common::rounds_for(window, || {
        let (base, base_labels) = replica_round(&s, seed, false);
        untraced.push(base.round);
        let (lay, labels) = replica_round(&s, seed, true);
        traced.push(lay);
        mismatched += usize::from(!agrees(&base_labels)) + usize::from(!agrees(&labels));
    });
    out.attempted = (rounds * 2 * (2 * CORPUS_PAIRS + WINDOW_SPECS)) as u64;
    out.check(mismatched == 0, || {
        format!("{mismatched} replica rounds labeled unlike the corpus pipeline or the learner")
    });

    let k = traced.len() as f64;
    let mean = |f: fn(&Layers) -> f64| traced.iter().map(f).sum::<f64>() / k;
    out.metric("sparse.structure_gen_s", mean(|l| l.structure_gen), "s");
    out.metric("features.structural_s", mean(|l| l.structural), "s");
    out.metric("oracle.sim_label_s", mean(|l| l.sim_label), "s");
    out.metric("oracle.tiered_label_s", mean(|l| l.tiered_label), "s");
    out.metric("surrogate.served_pairs", mean(|l| l.served as f64), "count");
    out.metric("surrogate.fallback_pairs", mean(|l| l.fallback as f64), "count");
    out.metric("sparse.materializations", mean(|l| l.materialized as f64), "count");
    out.metric("gen.build_s", mean(|l| l.gen_build), "s");
    out.metric("learn.label_s", mean(|l| l.learn_label), "s");
    out.metric("mlkit.refit_s", mean(|l| l.refit), "s");
    let base = untraced.iter().sum::<f64>() / untraced.len() as f64;
    out.metric("label.trace_overhead_pct", (mean(|l| l.round) / base - 1.0) * 100.0, "%");
    out
}
