//! The traffic mixes, their set-up through the public `condor` flow,
//! and one measured window of load against a started server.

use condor::{AcceleratorReplica, CloudContext, Condor, CondorError, DeployTarget, DseConfig};
use condor_caffe::{BlobProto, NetParameter};
use condor_cloud::F1InstanceType;
use condor_nn::{FastEngine, Network, QuantizedEngine};
use condor_queue::Priority;
use condor_serve::{
    BrownoutConfig, BrownoutController, CodelConfig, DegradableBackend, InferenceServer,
    PendingInference, ServeConfig, ServeError, ShedReason,
};
use condor_tensor::{Shape, Tensor};
use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stats::{poisson_schedule, Ledger, Rng};
use crate::track::{content_hash, Instrumented, Tracker};

/// Distinct input images per run. Larger than the most requests that
/// can be in flight at once on any workload, so every in-flight input
/// is unique.
pub const POOL: usize = 1024;
/// Backends per workload: the two slots of an f1.4xlarge or the two
/// CPU lanes.
pub const LANES: usize = 2;
/// Images used to calibrate the INT8 lanes.
const CALIB: usize = 16;
/// Weights are fixed so every seed runs the same model; the seed only
/// picks the inputs and the arrivals.
const WEIGHT_SEED: u64 = 0x5EED_0F1A;
const BUCKET: &str = "servebench";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetKind {
    Lenet,
    Convnet,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// One deployment on a 2-slot f1.4xlarge, one lane per slot.
    Cloud2Slot,
    /// Two CPU lanes that brown out from f32 to INT8 under CoDel sheds.
    CpuLanes,
}

#[derive(Clone, Copy, Debug)]
pub enum Traffic {
    /// Poisson arrivals at this many requests per second.
    Open(f64),
    /// This many requests in flight; the next is sent when one returns.
    Closed(usize),
}

/// One priority class of a traffic mix.
#[derive(Clone, Copy, Debug)]
pub struct Class {
    pub priority: Priority,
    pub share: f64,
    /// Latency limit for goodput.
    pub limit: Duration,
    /// Deadline passed with the request.
    pub timeout: Duration,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub net: NetKind,
    pub target: Target,
    pub traffic: Traffic,
    /// Most urgent class first.
    pub classes: Vec<Class>,
    /// Traffic sent before the measured window opens; served, checked
    /// and counted in the ledger, but not in the metrics.
    pub warmup: Duration,
}

pub const NAMES: [&str; 2] = ["lenet-trickle", "convnet-saturate"];

/// The server's own default deadline, used where a mix sets none.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(1);

fn mix(limits_ms: [u64; 3]) -> Vec<Class> {
    Priority::ALL
        .iter()
        .zip([0.2, 0.6, 0.2])
        .zip(limits_ms)
        .map(|((&priority, share), ms)| Class {
            priority,
            share,
            limit: Duration::from_millis(ms),
            timeout: Duration::from_millis(ms),
        })
        .collect()
}

fn standard_only(limit: Duration) -> Vec<Class> {
    vec![Class {
        priority: Priority::Standard,
        share: 1.0,
        limit,
        timeout: DEFAULT_TIMEOUT,
    }]
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let name = *NAMES.iter().find(|n| **n == name)?;
        let w = |net, traffic, classes| Workload {
            name,
            net,
            target: Target::Cloud2Slot,
            traffic,
            classes,
            warmup: Duration::from_secs(1),
        };
        Some(match name {
            "lenet-trickle" => w(
                NetKind::Lenet,
                Traffic::Open(200.0),
                standard_only(Duration::from_millis(10)),
            ),
            "convnet-saturate" => w(
                NetKind::Convnet,
                Traffic::Closed(64),
                standard_only(DEFAULT_TIMEOUT),
            ),
            _ => return None,
        })
    }

    /// The overload mix the traced run serves as a probe of CoDel,
    /// brownout and the CPU engines. Brownout, when it engages, does so
    /// within the first seconds of overload; the window opens after
    /// them.
    pub fn overload() -> Workload {
        Workload {
            name: "convnet-overload",
            net: NetKind::Convnet,
            target: Target::CpuLanes,
            traffic: Traffic::Open(4000.0),
            classes: mix([50, 200, 1000]),
            warmup: Duration::from_secs(3),
        }
    }
}

/// A Caffe model as a user brings it: prototxt text plus caffemodel
/// bytes, and the weighted network they describe.
pub struct Model {
    pub prototxt: &'static str,
    pub caffemodel: Arc<Vec<u8>>,
    pub net: Network,
}

impl Model {
    pub fn new(kind: NetKind) -> Result<Model, String> {
        let prototxt = match kind {
            NetKind::Lenet => condor_nn::zoo::lenet_prototxt(),
            NetKind::Convnet => include_str!("../convnet.prototxt"),
        };
        let mut proto = NetParameter::from_prototxt(prototxt).map_err(|e| e.to_string())?;
        let mut net = condor::frontend::caffe_to_network(&proto).map_err(|e| e.to_string())?;
        net.attach_random_weights(WEIGHT_SEED)
            .map_err(|e| e.to_string())?;
        for lp in &mut proto.layer {
            if let Some(lw) = net.weights_of(&lp.name) {
                lp.blobs.push(BlobProto::from_tensor(&lw.weights));
                if let Some(b) = &lw.bias {
                    lp.blobs.push(BlobProto::from_tensor(b));
                }
            }
        }
        Ok(Model {
            prototxt,
            caffemodel: Arc::new(proto.encode().to_vec()),
            net,
        })
    }

    /// The Caffe frontend: text and bytes in, a `Condor` flow out.
    fn frontend(&self) -> Result<Condor, CondorError> {
        Condor::from_caffe(self.prototxt, Some(&self.caffemodel))
    }
}

/// Seeded input images, each unique.
pub struct Pool {
    pub images: Vec<Tensor>,
    pub hashes: Vec<u64>,
}

impl Pool {
    pub fn new(shape: Shape, seed: u64) -> Result<Pool, String> {
        let mut rng = Rng::new(seed ^ 0x1A6E_5000);
        let images: Vec<Tensor> = (0..POOL)
            .map(|_| {
                let data = (0..shape.len()).map(|_| rng.unit() as f32).collect();
                Tensor::from_vec(shape, data)
            })
            .collect();
        let hashes: Vec<u64> = images.iter().map(content_hash).collect();
        if hashes.iter().collect::<HashSet<_>>().len() != hashes.len() {
            return Err("input pool has two images with the same content hash".into());
        }
        Ok(Pool { images, hashes })
    }

    pub fn calib(&self) -> &[Tensor] {
        &self.images[..CALIB]
    }
}

/// Wall time of each set-up phase of one deployment.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub frontend: Duration,
    pub build: Duration,
    pub deploy: Duration,
    pub serve_start: Duration,
}

impl Phases {
    pub fn total(&self) -> Duration {
        self.frontend + self.build + self.deploy + self.serve_start
    }
}

/// One set-up of a workload, ready to serve.
pub struct Deployed {
    pub server: InferenceServer,
    pub phases: Phases,
    /// A slot of the deployment, kept for the reference outputs and
    /// the dataflow probes (accelerator workloads only).
    pub replica: Option<AcceleratorReplica>,
    pub brownout: Option<Arc<BrownoutController>>,
}

fn build(kind: NetKind, condor: Condor) -> Result<condor::BuiltAccelerator, CondorError> {
    let condor = condor.board("aws-f1");
    match kind {
        NetKind::Lenet => condor.freq_mhz(180.0),
        NetKind::Convnet => condor.auto_dse(DseConfig::default()),
    }
    .build()
}

fn warm(replica: &AcceleratorReplica, image: &Tensor) -> Result<(), String> {
    // The runtime is wired lazily by the first batch; a request is only
    // servable once that has happened.
    replica
        .accelerator()
        .infer_batch(std::slice::from_ref(image))
        .map(drop)
        .map_err(|e| e.to_string())
}

/// Network in → first request servable, timed per phase.
pub fn setup(
    w: &Workload,
    model: &Model,
    pool: &Pool,
    tracker: &Arc<Tracker>,
) -> Result<Deployed, String> {
    let err = |e: CondorError| e.to_string();
    let mut phases = Phases::default();
    match w.target {
        Target::Cloud2Slot => {
            let t = Instant::now();
            let condor = model.frontend().map_err(err)?;
            phases.frontend = t.elapsed();
            let t = Instant::now();
            let built = build(w.net, condor).map_err(err)?;
            phases.build = t.elapsed();
            let t = Instant::now();
            let ctx = CloudContext::new(BUCKET).with_instance_type(F1InstanceType::F1_4xlarge);
            let deployed = built.deploy(&DeployTarget::Cloud(&ctx)).map_err(err)?;
            phases.deploy = t.elapsed();
            let t = Instant::now();
            let replicas = deployed.into_replicas();
            let replica = replicas[0].clone();
            let backends = replicas
                .into_iter()
                .enumerate()
                .map(|(lane, r)| Instrumented::wrap(Box::new(r), lane, tracker))
                .collect();
            let server = InferenceServer::new(backends, ServeConfig::default())
                .map_err(|e| e.to_string())?;
            warm(&replica, &pool.images[0])?;
            phases.serve_start = t.elapsed();
            Ok(Deployed {
                server,
                phases,
                replica: Some(replica),
                brownout: None,
            })
        }
        Target::CpuLanes => {
            let t = Instant::now();
            let net = model.frontend().map_err(err)?.network().clone();
            phases.frontend = t.elapsed();
            let t = Instant::now();
            let controller = Arc::new(BrownoutController::with_system_clock(
                BrownoutConfig::default(),
            ));
            let backends =
                DegradableBackend::replicas(&net, LANES, pool.calib(), Arc::clone(&controller))
                    .map_err(err)?
                    .into_iter()
                    .enumerate()
                    .map(|(lane, b)| Instrumented::wrap(b, lane, tracker))
                    .collect();
            let server = InferenceServer::new(
                backends,
                ServeConfig::default()
                    .with_codel(CodelConfig::default())
                    .with_brownout(Arc::clone(&controller)),
            )
            .map_err(|e| e.to_string())?;
            phases.serve_start = t.elapsed();
            Ok(Deployed {
                server,
                phases,
                replica: None,
                brownout: Some(controller),
            })
        }
    }
}

/// Outputs every reply is checked against, computed before timing.
pub struct Reference {
    f32_bits: Vec<Vec<u32>>,
    /// Present for brownout lanes.
    int8: Option<Int8Reference>,
}

/// What an INT8 reply must equal, and how far it may sit from f32.
struct Int8Reference {
    bits: Vec<Vec<u32>>,
    f32_vals: Vec<Vec<f32>>,
    /// The final layer's error budget.
    budget: f32,
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

impl Reference {
    /// The deployment's own outputs for every pool image.
    pub fn from_replica(replica: &AcceleratorReplica, pool: &Pool) -> Result<Reference, String> {
        let mut f32_bits = Vec::with_capacity(POOL);
        for chunk in pool.images.chunks(16) {
            let out = replica
                .accelerator()
                .infer_batch(chunk)
                .map_err(|e| e.to_string())?;
            f32_bits.extend(out.iter().map(bits));
        }
        Ok(Reference {
            f32_bits,
            int8: None,
        })
    }

    /// `FastEngine` outputs, plus the INT8 engine's outputs for replies
    /// served in brownout. The pool is split across two threads.
    pub fn from_engines(net: &Network, pool: &Pool) -> Result<Reference, String> {
        let e = |e: condor_nn::NnError| e.to_string();
        let fast = FastEngine::new(net).map_err(e)?;
        let quant = QuantizedEngine::calibrate(net, pool.calib()).map_err(e)?;
        let budget = quant
            .layer_budgets()
            .last()
            .map(|(_, b)| *b)
            .ok_or("quantized plan has no steps")?;
        type Part = Vec<(Vec<u32>, Vec<f32>, Vec<u32>)>;
        let run = |images: &[Tensor], mut fast: FastEngine, mut quant: QuantizedEngine| {
            images
                .iter()
                .map(|img| {
                    let f = fast.infer(img)?;
                    let q = quant.infer(img)?;
                    Ok((bits(&f), f.into_vec(), bits(&q)))
                })
                .collect::<Result<Part, condor_nn::NnError>>()
        };
        let (left, right) = pool.images.split_at(POOL / 2);
        let (fast2, quant2) = (fast.clone(), quant.clone());
        let (a, b) = std::thread::scope(|scope| {
            let other = scope.spawn(move || run(right, fast2, quant2));
            let mine = run(left, fast, quant);
            (mine, other.join().expect("reference thread panicked"))
        });
        let mut f32_bits = Vec::with_capacity(POOL);
        let mut int8 = Int8Reference {
            bits: Vec::with_capacity(POOL),
            f32_vals: Vec::with_capacity(POOL),
            budget,
        };
        for (f, vals, q) in a.map_err(e)?.into_iter().chain(b.map_err(e)?) {
            f32_bits.push(f);
            int8.f32_vals.push(vals);
            int8.bits.push(q);
        }
        Ok(Reference {
            f32_bits,
            int8: Some(int8),
        })
    }
}

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with an output, computed by the INT8 engine or not.
    Answered {
        int8: bool,
    },
    /// Refused at submission (`QueueFull` or another shed reason).
    Refused,
    /// Shed by CoDel after admission.
    Shed,
    TimedOut,
    /// Any other error: a failure of the system under test.
    Failed,
}

/// One request as the load generator and collector saw it. Times are
/// nanoseconds since the tracker's epoch.
#[derive(Clone, Debug)]
pub struct Record {
    pub seq: u64,
    pub class: usize,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub submitted_ns: u64,
    /// The server accepted the request at submission.
    pub accepted: bool,
    pub outcome: Outcome,
    pub done_ns: Option<u64>,
    pub batch_start_ns: Option<u64>,
    pub measured: bool,
}

/// Violations found while serving one window.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Everything one measured window produced.
pub struct Window {
    pub records: Vec<Record>,
    pub window: (u64, u64),
    pub ledger: Ledger,
    pub brownout_engages: u64,
    pub mismatches: Mismatches,
    /// Checks that failed while serving.
    pub checks: Checks,
}

struct Sent {
    rec: Record,
    slot: usize,
    pending: Option<PendingInference>,
}

/// Drives one window of traffic through `dep`, then shuts it down and
/// checks the ledger and the outputs.
pub fn serve(
    w: &Workload,
    dep: Deployed,
    pool: &Pool,
    reference: &Reference,
    tracker: &Arc<Tracker>,
    seed: u64,
    seconds: Duration,
) -> Window {
    let mut checks = Checks::default();
    let span = w.warmup + seconds;
    let start_ns = tracker.now_ns() + 2_000_000;
    let window = (
        start_ns + w.warmup.as_nanos() as u64,
        start_ns + span.as_nanos() as u64,
    );
    let mut class_rng = Rng::new(seed ^ 0x0C1A_55E5);
    let mut pick_class = move || {
        let u = class_rng.unit();
        let mut acc = 0.0;
        for (i, c) in w.classes.iter().enumerate() {
            acc += c.share;
            if u < acc {
                return i;
            }
        }
        w.classes.len() - 1
    };
    let schedule = match w.traffic {
        Traffic::Open(rate) => poisson_schedule(seed, rate, span),
        Traffic::Closed(_) => Vec::new(),
    };
    let server = &dep.server;
    let (tx, rx) = mpsc::channel::<Sent>();

    let (records, mismatches) = std::thread::scope(|scope| {
        let collector = {
            let tracker = Arc::clone(tracker);
            scope.spawn(move || collect(rx, &tracker, reference))
        };
        let mut seq = 0u64;
        let mut send = |class: usize, due_ns: u64| {
            let slot = tracker.acquire(seq, seq as usize % POOL);
            let image = pool.images[slot].clone();
            let c = w.classes[class];
            tracker.sent();
            let sent_ns = tracker.now_ns();
            let result = server.submit_with_class(image, c.timeout, c.priority);
            let submitted_ns = tracker.now_ns();
            let mut rec = Record {
                seq,
                class,
                due_ns,
                sent_ns,
                submitted_ns,
                accepted: result.is_ok(),
                outcome: Outcome::Failed,
                done_ns: None,
                batch_start_ns: None,
                measured: (window.0..window.1).contains(&due_ns),
            };
            let pending = match result {
                Ok(p) => Some(p),
                Err(e) => {
                    tracker.release(slot, seq);
                    tracker.finish(seq);
                    rec.outcome = outcome_of_error(&e);
                    None
                }
            };
            seq += 1;
            // The collector outlives the generator; a closed channel
            // would mean it panicked, which the join below reports.
            let _ = tx.send(Sent { rec, slot, pending });
        };
        match w.traffic {
            Traffic::Open(_) => {
                for offset in &schedule {
                    let due_ns = start_ns + offset.as_nanos() as u64;
                    let now = tracker.now_ns();
                    if due_ns > now {
                        std::thread::sleep(Duration::from_nanos(due_ns - now));
                    }
                    send(pick_class(), due_ns);
                }
            }
            // A place in the loop comes back when the backend returns
            // the request's output, not when the in-order collector
            // reaches the reply. A request the server ends with an error
            // gives its place back when the collector gets to it.
            Traffic::Closed(depth) => {
                for _ in 0..tracker.max_requests() {
                    tracker.wait_below(depth);
                    if tracker.now_ns() >= window.1 {
                        break;
                    }
                    send(pick_class(), tracker.now_ns().max(start_ns));
                }
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    if matches!(w.traffic, Traffic::Closed(_)) {
        checks.expect(records.len() < tracker.max_requests(), || {
            format!(
                "the closed loop sent all {} requests it has room for before the window \
                 closed; throughput would be capped",
                records.len()
            )
        });
    }

    let brownout_engages = dep.brownout.as_ref().map_or(0, |b| b.engages());
    let accepted_here = records.iter().filter(|r| r.accepted).count() as u64;
    let snapshot = dep.server.shutdown();
    let ledger = Ledger {
        accepted: snapshot.counter("requests_accepted"),
        completed: snapshot.counter("requests_completed"),
        failed: snapshot.counter("requests_failed"),
        timed_out: snapshot.counter("requests_timed_out"),
        shed: snapshot.counter("requests_shed"),
    };
    checks.expect(ledger.balances(), || {
        format!("ledger does not balance: {ledger:?}")
    });
    checks.expect(ledger.accepted == accepted_here, || {
        format!(
            "server accepted {} requests, the generator saw {accepted_here} accepted",
            ledger.accepted
        )
    });
    checks.expect(mismatches.wrong == 0, || {
        format!(
            "{} replies differ from the reference outputs",
            mismatches.wrong
        )
    });
    checks.expect(mismatches.over_budget == 0, || {
        format!(
            "{} INT8 replies exceed the INT8 error budget",
            mismatches.over_budget
        )
    });
    checks.expect(mismatches.unstamped == 0, || {
        format!(
            "{} answered requests never passed a backend",
            mismatches.unstamped
        )
    });
    checks.expect(tracker.unmatched() == 0, || {
        format!(
            "{} backend inputs matched no in-flight request",
            tracker.unmatched()
        )
    });
    let failed = records
        .iter()
        .filter(|r| r.outcome == Outcome::Failed)
        .count();
    checks.expect(failed == 0, || {
        format!("{failed} requests failed with an error")
    });
    Window {
        records,
        window,
        ledger,
        brownout_engages,
        mismatches,
        checks,
    }
}

fn outcome_of_error(e: &ServeError) -> Outcome {
    match e {
        ServeError::Overloaded(ShedReason::CoDelShed { .. }) => Outcome::Shed,
        ServeError::Overloaded(_) => Outcome::Refused,
        ServeError::Timeout => Outcome::TimedOut,
        _ => Outcome::Failed,
    }
}

#[derive(Default)]
pub struct Mismatches {
    /// Replies equal to neither reference output.
    pub wrong: u64,
    /// INT8 replies further from the f32 output than the error budget.
    pub over_budget: u64,
    /// Replies whose `degraded` flag names the other engine.
    pub mislabeled: u64,
    /// Answered requests that no backend call carried.
    pub unstamped: u64,
}

/// Waits for every reply in submission order. Latency does not depend
/// on this order: completion was stamped by the backend wrapper.
fn collect(
    rx: mpsc::Receiver<Sent>,
    tracker: &Tracker,
    reference: &Reference,
) -> (Vec<Record>, Mismatches) {
    let mut records = Vec::new();
    let mut m = Mismatches::default();
    for Sent {
        mut rec,
        slot,
        pending,
    } in rx
    {
        if let Some(pending) = pending {
            match pending.wait_reply() {
                Ok(reply) => {
                    // Which engine computed the reply is read from its
                    // bits: the `degraded` flag is compared against that,
                    // not trusted.
                    let got = reply.output.as_slice();
                    let same =
                        |want: &[u32]| got.iter().map(|v| v.to_bits()).eq(want.iter().copied());
                    let is_f32 = same(&reference.f32_bits[slot]);
                    let int8 = match &reference.int8 {
                        Some(q) if !is_f32 && same(&q.bits[slot]) => {
                            let err = got
                                .iter()
                                .zip(&q.f32_vals[slot])
                                .fold(0.0f32, |e, (a, b)| e.max((a - b).abs()));
                            // The budget bounds the error against the
                            // golden engine; FastEngine sits within 1e-4
                            // of it.
                            m.over_budget += u64::from(err > q.budget + 1e-4);
                            true
                        }
                        _ => false,
                    };
                    if is_f32 || int8 {
                        m.mislabeled += u64::from(reply.degraded != int8);
                    } else {
                        m.wrong += 1;
                    }
                    rec.outcome = Outcome::Answered { int8 };
                    rec.done_ns = tracker.done_ns(rec.seq);
                    rec.batch_start_ns = tracker.batch_start_ns(rec.seq);
                    m.unstamped += u64::from(rec.done_ns.is_none());
                }
                Err(e) => {
                    tracker.release(slot, rec.seq);
                    rec.outcome = outcome_of_error(&e);
                }
            }
            tracker.finish(rec.seq);
        }
        records.push(rec);
    }
    (records, m)
}
