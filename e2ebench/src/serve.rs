//! The serving path, measured in traced runs only: an in-process
//! event-engine server (1 reactor, 1 pool worker) under a closed loop
//! from one connection per core, each sending an interleaved mix of
//! `Predict`, `Batch` of 16 vectors and `PredictGen` on small generated
//! operands, then a single-thread replay of the same request lines
//! through public functions, split by layer. Its end-to-end figures did
//! not hold steady enough to gate (see the README), so it is not a
//! workload of its own.

use crate::common::{self, quantile_sorted, secs, Outcome};
use crate::label::{gen_spec, SPEC_PERIOD};
use misam::persist::ModelBundle;
use misam::training;
use misam::{Dataset, Objective};
use misam_features::PairFeatures;
use misam_recon::cost::ReconfigCost;
use misam_serve::protocol::{
    BatchReply, BatchRequest, PredictReply, PredictRequest, RequestEnvelope, ResponseEnvelope,
};
use misam_serve::state::{predict_batch, predict_vector, PredictOutcome, PreparedBundle, Session};
use misam_serve::{Client, Request, Response, ServeConfig, ServeMode, Server, PROTOCOL_VERSION};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Corpus the served bundle is trained on; its feature rows are also
/// the vectors `Predict`/`Batch` requests carry.
const TRAIN_SAMPLES: usize = 3000;
/// Requests per connection per round: `Predict`, `Batch`, `PredictGen`
/// repeated, so each round holds one whole cycle of the spec ladder.
const ROUND_TRIPLES: usize = SPEC_PERIOD;
const BATCH_ITEMS: usize = 16;
const KINDS: [&str; 3] = ["predict", "batch16", "gen"];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Predict = 0,
    Batch = 1,
    Gen = 2,
}

/// One planned request with the outcomes a correct server computes for
/// it (batched inference is bit-identical to per-vector inference).
struct Planned {
    kind: Kind,
    req: Request,
    expect: Vec<PredictOutcome>,
}

struct Setup {
    server: Server,
    prepared: PreparedBundle,
    plans: Vec<Vec<Planned>>,
}

fn bundle(ds: &Dataset, seed: u64) -> ModelBundle {
    ModelBundle::new(
        training::train_selector(ds, Objective::Latency, seed).selector,
        training::train_latency_predictor(ds, seed).predictor,
        0.2,
        ReconfigCost::default(),
        misam_features::TileConfig::default(),
    )
}

/// The request plan of every connection: each round interleaves the
/// three kinds; vectors are corpus feature rows, specs small operands.
fn plans(seed: u64, ds: &Dataset, prepared: &PreparedBundle, conns: usize) -> Vec<Vec<Planned>> {
    let tile = prepared.bundle.tile_config();
    let rows = &ds.samples;
    (0..conns)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x5e7e + c as u64));
            let vector = |rng: &mut StdRng| rows[rng.gen_range(0..rows.len())].features.clone();
            let mut plan = Vec::with_capacity(3 * ROUND_TRIPLES);
            for i in 0..ROUND_TRIPLES {
                let v = vector(&mut rng);
                plan.push(Planned {
                    kind: Kind::Predict,
                    expect: vec![predict_vector(prepared, &v)],
                    req: Request::Predict(PredictRequest { features: v }),
                });
                let vs: Vec<Vec<f64>> = (0..BATCH_ITEMS).map(|_| vector(&mut rng)).collect();
                plan.push(Planned {
                    kind: Kind::Batch,
                    expect: vs.iter().map(|v| predict_vector(prepared, v)).collect(),
                    req: Request::Batch(BatchRequest {
                        items: vs.into_iter().map(|features| PredictRequest { features }).collect(),
                    }),
                });
                let spec = gen_spec(i, &mut rng);
                let a = spec.build().expect("generated specs are valid");
                let f = PairFeatures::extract_dense_b(&a, a.cols(), spec.dense_cols, &tile);
                plan.push(Planned {
                    kind: Kind::Gen,
                    expect: vec![predict_vector(prepared, &f.to_vector())],
                    req: Request::PredictGen(spec),
                });
            }
            plan
        })
        .collect()
}

fn setup(seed: u64) -> Setup {
    let ds = Dataset::generate_with_threads(TRAIN_SAMPLES, seed, 1);
    let b = bundle(&ds, seed);
    let prepared = PreparedBundle::new(b.clone());
    let plans = plans(seed, &ds, &prepared, common::nproc());
    let cfg =
        ServeConfig { threads: 1, mode: ServeMode::Event, reactors: 1, ..ServeConfig::default() };
    let server = Server::start(b, cfg).expect("server starts on an ephemeral port");
    Setup { server, prepared, plans }
}

/// What one closed-loop window observed.
#[derive(Default)]
struct Observed {
    /// Client-observed nanoseconds per request, by kind, every sample.
    lat_ns: [Vec<u64>; 3],
    requests: u64,
    failed: u64,
    mismatched: u64,
}

/// Checks one reply against the connection's session replica, which
/// applies the same reconfiguration policy to the expected outcomes.
fn matches(p: &Planned, resp: &Response, session: &mut Session) -> bool {
    let mut expect = p.expect.iter().map(|o| session.decide(o));
    match (p.kind, resp) {
        (Kind::Predict | Kind::Gen, Response::Predict(r)) => expect.next().as_ref() == Some(r),
        (Kind::Batch, Response::Batch(b)) => {
            b.items.len() == p.expect.len()
                && b.items.iter().all(|r| expect.next().as_ref() == Some(r))
        }
        _ => false,
    }
}

/// Runs whole rounds of every connection's plan until `window` has
/// elapsed, after one untimed warm-up round per connection.
fn closed_loop(s: &Setup, window: Duration) -> Observed {
    let addr = s.server.addr();
    let start = Barrier::new(s.plans.len());
    let per_conn: Vec<Observed> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .plans
            .iter()
            .map(|plan| {
                let start = &start;
                scope.spawn(move || {
                    let mut o = Observed::default();
                    let mut client = Client::connect(addr).expect("connect to the local server");
                    let mut session = Session::new(&s.prepared.bundle);
                    let mut send = |p: &Planned, o: &mut Observed| {
                        let req = p.req.clone();
                        let t = Instant::now();
                        let resp = client.call(req);
                        let ns = t.elapsed().as_nanos() as u64;
                        match &resp {
                            Ok(r @ (Response::Predict(_) | Response::Batch(_))) => {
                                o.lat_ns[p.kind as usize].push(ns);
                                o.mismatched += u64::from(!matches(p, r, &mut session));
                            }
                            _ => o.failed += 1,
                        }
                        o.requests += 1;
                    };
                    let mut warm = Observed::default();
                    plan.iter().for_each(|p| send(p, &mut warm));
                    o.mismatched += warm.mismatched + warm.failed;
                    start.wait();
                    common::rounds_for(window, || plan.iter().for_each(|p| send(p, &mut o)));
                    o
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut all = Observed::default();
    for o in per_conn {
        for k in 0..3 {
            all.lat_ns[k].extend(&o.lat_ns[k]);
        }
        all.requests += o.requests;
        all.failed += o.failed;
        all.mismatched += o.mismatched;
    }
    for v in &mut all.lat_ns {
        v.sort_unstable();
    }
    all
}

/// Client p50 per kind, microseconds.
fn p50_us(o: &Observed) -> [f64; 3] {
    std::array::from_fn(|k| quantile_sorted(&o.lat_ns[k], 0.5) as f64 / 1e3)
}

/// Microseconds per request in each serving layer, from a
/// single-thread replay of the request lines.
#[derive(Default)]
struct Replay {
    decode: [f64; 3],
    walk: [f64; 3],
    encode: [f64; 3],
    count: [u64; 3],
    decide: f64,
    decides: u64,
    gen_build: f64,
    dense_b: f64,
    total: f64,
}

/// Decode → walk (with build and features for `PredictGen`) → session
/// decide → encode, over every line once; with `timed`, each step is
/// clocked. Returns whether every outcome matched the plan.
fn replay(
    s: &Setup,
    lines: &[(Kind, String)],
    expect: &[&Planned],
    timed: bool,
    r: &mut Replay,
) -> bool {
    let tile = s.prepared.bundle.tile_config();
    let mut session = Session::new(&s.prepared.bundle);
    let mut buf = Vec::with_capacity(4096);
    let mut ok = true;
    let clock = || timed.then(Instant::now);
    let span = |a: Option<Instant>, b: Option<Instant>| match (a, b) {
        (Some(a), Some(b)) => (b - a).as_secs_f64() * 1e6,
        _ => 0.0,
    };
    let t_all = Instant::now();
    for ((kind, line), p) in lines.iter().zip(expect) {
        let k = *kind as usize;
        let t0 = clock();
        let env: RequestEnvelope = serde_json::from_str(line).expect("planned lines parse");
        let t1 = clock();
        let (outcomes, t2) = match env.req {
            Request::Predict(p) => (vec![predict_vector(&s.prepared, &p.features)], clock()),
            Request::Batch(b) => {
                let vs: Vec<Vec<f64>> = b.items.into_iter().map(|i| i.features).collect();
                (predict_batch(&s.prepared, &vs), clock())
            }
            Request::PredictGen(spec) => {
                let a = spec.build().expect("generated specs are valid");
                let tb = clock();
                let f = PairFeatures::extract_dense_b(&a, a.cols(), spec.dense_cols, &tile);
                let tf = clock();
                let out = predict_vector(&s.prepared, &f.to_vector());
                let tw = clock();
                r.gen_build += span(t1, tb);
                r.dense_b += span(tb, tf);
                r.walk[k] += span(tf, tw);
                (vec![out], tw)
            }
            _ => unreachable!("plans hold predict requests only"),
        };
        if *kind != Kind::Gen {
            r.walk[k] += span(t1, t2);
        }
        let replies: Vec<PredictReply> = outcomes.iter().map(|o| session.decide(o)).collect();
        let t3 = clock();
        r.decides += replies.len() as u64;
        let resp = match kind {
            Kind::Batch => Response::Batch(BatchReply { items: replies }),
            _ => Response::Predict(replies[0]),
        };
        buf.clear();
        let env = ResponseEnvelope { v: PROTOCOL_VERSION, id: env.id, resp };
        misam_serve::protocol::write_line(&mut buf, &env).expect("writing to memory");
        let t4 = clock();
        r.decode[k] += span(t0, t1);
        r.decide += span(t2, t3);
        r.encode[k] += span(t3, t4);
        r.count[k] += 1;
        ok &= outcomes.len() == p.expect.len()
            && outcomes.iter().zip(&p.expect).all(|(a, b)| common::same_bits(a, b));
    }
    r.total += secs(t_all);
    std::hint::black_box(&buf);
    ok
}

pub fn trace(seed: u64, window: Duration) -> Outcome {
    let mut out = Outcome::default();
    let s = setup(seed);
    let o = closed_loop(&s, window / 2);
    let stats = s.server.stats();
    out.attempted = o.requests;
    out.failed = o.failed;
    out.check(o.mismatched == 0, || {
        format!("{} replies differ from the local selector and session replica", o.mismatched)
    });
    out.check(stats.errors == 0 && stats.shed == 0, || {
        format!("server counted {} errors and {} shed requests", stats.errors, stats.shed)
    });

    let expect: Vec<&Planned> = s.plans.iter().flatten().collect();
    let lines: Vec<(Kind, String)> = expect
        .iter()
        .enumerate()
        .map(|(id, p)| {
            let env =
                RequestEnvelope { v: PROTOCOL_VERSION, id: id as u64 + 1, req: p.req.clone() };
            (p.kind, serde_json::to_string(&env).expect("requests serialize"))
        })
        .collect();
    let (mut base, mut traced) = (Replay::default(), Replay::default());
    let mut mismatched = 0u64;
    let passes = common::rounds_for(window / 2, || {
        mismatched += u64::from(!replay(&s, &lines, &expect, false, &mut base));
        mismatched += u64::from(!replay(&s, &lines, &expect, true, &mut traced));
    });
    s.server.shutdown();
    out.attempted += (2 * passes * lines.len()) as u64;
    out.check(mismatched == 0, || format!("{mismatched} replay passes disagreed with the plan"));

    let p50 = p50_us(&o);
    let r = &traced;
    let per = |x: f64, k: usize| x / r.count[k] as f64;
    let decide_us = r.decide / r.decides as f64;
    for (k, kind) in KINDS.iter().enumerate() {
        out.metric(format!("protocol.decode_us.{kind}"), per(r.decode[k], k), "us");
        out.metric(format!("state.walk_us.{kind}"), per(r.walk[k], k), "us");
        out.metric(format!("protocol.encode_us.{kind}"), per(r.encode[k], k), "us");
    }
    out.metric("state.session_decide_us", decide_us, "us");
    let gen_build = per(r.gen_build, 2);
    let dense_b = per(r.dense_b, 2);
    out.metric("gen.build_us", gen_build, "us");
    out.metric("features.dense_b_us", dense_b, "us");
    for (k, kind) in KINDS.iter().enumerate() {
        let items = if k == 1 { BATCH_ITEMS as f64 } else { 1.0 };
        let extra = if k == 2 { gen_build + dense_b } else { 0.0 };
        let replayed = per(r.decode[k] + r.walk[k] + r.encode[k], k) + items * decide_us + extra;
        out.metric(format!("serve.unaccounted_us.{kind}"), p50[k] - replayed, "us");
    }
    out.metric("batch.flushes", stats.batches_flushed as f64, "count");
    out.metric("batch.items", stats.batched_items as f64, "count");
    out.metric("serve.trace_overhead_pct", (traced.total / base.total - 1.0) * 100.0, "%");
    out
}
