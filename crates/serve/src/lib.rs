//! # condor-serve
//!
//! A multi-threaded inference server over deployed Condor accelerators.
//!
//! The paper deploys one accelerator and hands the caller a host handle;
//! production use puts that handle behind a service. This crate provides
//! the serving layer: concurrent clients submit single images, a batcher
//! thread coalesces them into hardware batches (the Figure 5 effect —
//! FPGA pipelines only reach their sustained rate when batches keep
//! every PE busy), and worker threads dispatch each batch to the
//! least-loaded [`ExecutionBackend`] — all FPGA slots of an F1 instance,
//! several on-premise deployments, or pure-CPU [`CpuBackend`] lanes
//! running `condor_nn::FastEngine` (see [`cpu`]).
//!
//! There is one front end. An [`InferenceServer`] serves one instance's
//! lanes; a [`Fleet`] is the same server over N instances, each behind
//! a circuit breaker and replaced by a supervisor when it fails (see
//! [`fleet`]). Either way a request is admitted once, batched once and
//! answered once.
//!
//! Operational behaviour:
//!
//! * **Dynamic batching** — a batch closes when it reaches
//!   [`ServeConfig::max_batch`] or when [`ServeConfig::batch_window`]
//!   expires after its first request, whichever comes first.
//! * **Priority classes** — every request carries a
//!   [`Priority`] (`Interactive`/`Standard`/`Batch`); the admission
//!   queue dispatches strict-priority with aging, so interactive
//!   traffic goes first but batch work can never starve (see
//!   [`admission`](crate::admission) internals).
//! * **Backpressure & shedding** — the request queue is bounded; when
//!   it is full, [`InferenceServer::submit`] fails fast with
//!   [`ServeError::Overloaded`]`(`[`ShedReason::QueueFull`]`)`. With
//!   [`ServeConfig::with_codel`] the queue additionally sheds under
//!   sustained sojourn-time overload, lowest class first, attaching a
//!   `retry_after` hint ([`ShedReason::CoDelShed`]).
//! * **Brownout** — with [`ServeConfig::with_brownout`] (and
//!   [`DegradableBackend`] lanes) sustained shedding switches CPU
//!   lanes from f32 to INT8 inference and back with hysteresis;
//!   affected replies carry [`ServeReply::degraded`]` = true`. INT8 is
//!   not faster everywhere: on a 2-vCPU x86 VM the convnet's INT8
//!   engine takes 1.7–2.8 ms per image against f32's 1.3–1.6 ms, so
//!   there brownout lowers capacity.
//! * **Timeouts** — every request carries a deadline; requests that expire
//!   while queued are answered with [`ServeError::Timeout`].
//! * **Graceful drain** — [`InferenceServer::shutdown`] stops accepting
//!   new work, drains everything already accepted, joins all threads and
//!   returns the final [`MetricsSnapshot`].
//! * **Resilience** — workers retry transiently-failed batches (bounded
//!   by [`ServeConfig::backend_attempts`] and the requests' remaining
//!   deadlines); a lane that fails [`ServeConfig::failure_threshold`]
//!   consecutive batches is quarantined for [`ServeConfig::quarantine`]
//!   and traffic sheds to the healthy lanes until its re-probe
//!   succeeds. Fault injection (`condor-faults`, sites
//!   `serve.backend{i}`) drives the chaos suite in
//!   `tests/chaos.rs`.
//! * **Durable admission (opt-in)** — with
//!   [`ServeConfig::with_queue`]`(`[`QueueBackend::Disk`]`)` every
//!   accepted request is appended and fsynced to a crash-safe
//!   `condor-queue` log before admission, acked only after its reply is
//!   delivered, and redelivered on restart if the process dies in
//!   between — `accepted ⇒ eventually resolved-or-failed` survives
//!   `kill -9` (see `tests/crash.rs`).
//!
//! Every accepted request receives exactly one reply, and outputs are
//! bit-identical to calling `infer_batch` directly on the deployment:
//! the threaded runtime computes each image independently, so batch
//! composition cannot change the numbers.
//!
//! ```
//! use condor::{Condor, DeployTarget};
//! use condor_nn::{dataset, zoo};
//! use condor_serve::{InferenceServer, ServeConfig};
//!
//! let deployed = Condor::from_network(zoo::lenet_weighted(7))
//!     .board("aws-f1")
//!     .build()
//!     .unwrap()
//!     .deploy(&DeployTarget::OnPremise)
//!     .unwrap();
//! let server = InferenceServer::from_deployment(deployed, ServeConfig::default()).unwrap();
//! let image = dataset::mnist_like(1, 1).remove(0).image;
//! let probs = server.infer(image).unwrap();
//! assert_eq!(probs.shape().c, 10);
//! let metrics = server.shutdown();
//! assert_eq!(metrics.counter("requests_completed"), 1);
//! ```

#![forbid(unsafe_code)]

mod admission;
pub mod brownout;
pub mod cpu;
mod dispatch;
mod durable;
pub mod fleet;

pub use admission::CodelConfig;
pub use brownout::{BrownoutConfig, BrownoutController, DegradableBackend};
pub use condor_queue::{
    AimdConfig, BreakerConfig, BreakerState, DiskQueueConfig, Priority, QueueBackend,
};
pub use cpu::CpuBackend;
pub use fleet::{Fleet, FleetConfig, InstanceProvisioner};

use admission::PushError;
use condor::{
    CondorError, DeployedAccelerator, ExecutionBackend, MetricsRegistry, MetricsSnapshot,
};
use condor_faults::{FaultHandle, FaultPlan};
use condor_queue::DiskQueue;
use condor_tensor::Tensor;
use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, Sender};
use dispatch::{Core, Instance};
use fleet::SupervisorMsg;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of the serving layer.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Largest hardware batch the batcher will form.
    pub max_batch: usize,
    /// How long the batcher waits after a batch's first request for more
    /// requests to coalesce before flushing a partial batch.
    pub batch_window: Duration,
    /// Bound on the request queue; a full queue rejects with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to requests submitted without an explicit
    /// timeout.
    pub default_timeout: Duration,
    /// Consecutive batch failures before a lane is quarantined.
    pub failure_threshold: usize,
    /// How long a quarantined lane sits out before it is re-probed.
    pub quarantine: Duration,
    /// Total attempts a worker makes per batch when the backend fails
    /// transiently (1 = never retry).
    pub backend_attempts: u32,
    /// Pause between in-worker retry attempts.
    pub backend_backoff: Duration,
    /// Fault injection over the dispatch path (sites
    /// `serve.backend{i}`, or `fleet{replica}g{generation}.serve.backend{i}`
    /// in a fleet; disabled by default).
    pub faults: FaultHandle,
    /// Which admission queue backs `submit`: the in-memory channel
    /// (default) or a crash-safe disk queue that redelivers accepted
    /// requests after a restart.
    pub queue: QueueBackend,
    /// CoDel-style shedding law over admission-queue sojourn time
    /// (disabled by default: only a full queue rejects).
    pub codel: Option<CodelConfig>,
    /// Pops a lower class may be bypassed before it jumps the strict
    /// priority order (starvation freedom).
    pub aging_limit: u32,
    /// Brownout controller shared with [`DegradableBackend`] lanes;
    /// absent by default (no degradation, replies never `degraded`).
    pub brownout: Option<Arc<BrownoutController>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            batch_window: Duration::from_millis(2),
            queue_capacity: 256,
            default_timeout: Duration::from_secs(1),
            failure_threshold: 3,
            quarantine: Duration::from_millis(50),
            backend_attempts: 2,
            backend_backoff: Duration::from_micros(500),
            faults: FaultHandle::disabled(),
            queue: QueueBackend::InMemory,
            codel: None,
            aging_limit: 16,
            brownout: None,
        }
    }
}

impl ServeConfig {
    /// Sets the maximum hardware batch size.
    pub fn with_max_batch(mut self, n: usize) -> Self {
        self.max_batch = n.max(1);
        self
    }

    /// Sets the batch coalescing window.
    pub fn with_batch_window(mut self, w: Duration) -> Self {
        self.batch_window = w;
        self
    }

    /// Sets the request queue bound.
    pub fn with_queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Sets the default per-request deadline.
    pub fn with_default_timeout(mut self, t: Duration) -> Self {
        self.default_timeout = t;
        self
    }

    /// Sets the consecutive-failure threshold for lane quarantine.
    pub fn with_failure_threshold(mut self, n: usize) -> Self {
        self.failure_threshold = n.max(1);
        self
    }

    /// Sets the quarantine duration for unhealthy lanes.
    pub fn with_quarantine(mut self, q: Duration) -> Self {
        self.quarantine = q;
        self
    }

    /// Sets the total in-worker attempts per batch (1 = never retry).
    pub fn with_backend_attempts(mut self, n: u32) -> Self {
        self.backend_attempts = n.max(1);
        self
    }

    /// Sets the pause between in-worker retry attempts.
    pub fn with_backend_backoff(mut self, b: Duration) -> Self {
        self.backend_backoff = b;
        self
    }

    /// Installs a fault plan over the dispatch path.
    pub fn with_fault_plan(self, plan: FaultPlan) -> Self {
        self.with_faults(plan.install())
    }

    /// Shares an already-installed fault handle.
    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.faults = faults;
        self
    }

    /// Selects the admission queue backend (disk = durable admission).
    pub fn with_queue(mut self, queue: QueueBackend) -> Self {
        self.queue = queue;
        self
    }

    /// Enables CoDel-style shedding with the given law (clamped once
    /// here: non-zero target, interval ≥ target).
    pub fn with_codel(mut self, codel: CodelConfig) -> Self {
        self.codel = Some(codel.normalized());
        self
    }

    /// Sets the aging limit of the priority dispatcher (≥ 1).
    pub fn with_aging_limit(mut self, limit: u32) -> Self {
        self.aging_limit = limit.max(1);
        self
    }

    /// Shares a brownout controller with this server: CoDel sheds feed
    /// it, the batcher exports its `brownout_active` gauge, and worker
    /// replies carry `degraded` while it is active. Pass the same
    /// handle to [`DegradableBackend::replicas`] so lanes actually
    /// change gears.
    pub fn with_brownout(mut self, controller: Arc<BrownoutController>) -> Self {
        self.brownout = Some(controller);
        self
    }
}

/// Why an overloaded server refused (or abandoned) a request — the
/// typed payload of [`ServeError::Overloaded`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded admission queue was full at submission.
    QueueFull,
    /// A fleet refused admission because fewer than `min_healthy`
    /// instances were live.
    MinHealthyFloor,
    /// The CoDel law shed this already-admitted request because queue
    /// sojourn stayed above target; retrying sooner than `retry_after`
    /// lands inside the same overload episode.
    CoDelShed {
        /// The law's current drop spacing.
        retry_after: Duration,
    },
    /// Every routable instance sat behind an open circuit breaker.
    BreakerOpen,
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "request queue is full"),
            ShedReason::MinHealthyFloor => write!(f, "below the minimum healthy-instance floor"),
            ShedReason::CoDelShed { retry_after } => {
                write!(f, "shed by CoDel; retry after {retry_after:?}")
            }
            ShedReason::BreakerOpen => write!(f, "all instance circuit breakers are open"),
        }
    }
}

/// Why a request did not produce an output.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The server shed the request under overload; the reason says
    /// where in the degradation ladder it was refused.
    Overloaded(ShedReason),
    /// The request's deadline expired before it reached the hardware.
    Timeout,
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The server went away without answering (it was dropped).
    Disconnected,
    /// No execution backends were provided.
    NoBackends,
    /// The accelerator itself failed the batch.
    Backend(CondorError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded(reason) => write!(f, "server overloaded: {reason}"),
            ServeError::Timeout => write!(f, "request timed out before execution"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Disconnected => write!(f, "server disconnected without replying"),
            ServeError::NoBackends => write!(f, "no execution backends provided"),
            ServeError::Backend(e) => write!(f, "backend failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// True when resubmitting the request may succeed: transient
    /// backend failures, timeouts and overload are worth retrying;
    /// shutdown, disconnection and misconfiguration are not.
    pub fn is_transient(&self) -> bool {
        match self {
            ServeError::Overloaded(_) | ServeError::Timeout => true,
            ServeError::Backend(e) => e.transient,
            ServeError::ShuttingDown | ServeError::Disconnected | ServeError::NoBackends => false,
        }
    }
}

impl condor_faults::retry::Retryable for ServeError {
    fn is_transient(&self) -> bool {
        ServeError::is_transient(self)
    }
}

/// A completed inference: the output plus how it was produced.
#[derive(Clone, Debug)]
pub struct ServeReply {
    /// The network's output tensor.
    pub output: Tensor,
    /// True when the answer was produced while brownout mode was
    /// active (INT8 lane, bounded accuracy cost).
    pub degraded: bool,
}

/// One queued inference request.
struct Request {
    tensor: Tensor,
    /// Its priority class (also carried by the admission queue's lane
    /// and, durably, the CQR2 frame); needed again only when the
    /// request is shed after admission.
    class: Priority,
    enqueued: Instant,
    deadline: Instant,
    reply: Sender<Result<ServeReply, ServeError>>,
    /// Present in disk-queue mode: the durable record backing this
    /// request, acked only when the request is resolved.
    ticket: Option<DurableTicket>,
}

/// The durable record behind one accepted request.
struct DurableTicket {
    queue: Arc<DiskQueue>,
    id: u64,
}

/// Answers a request and — in disk-queue mode — acks its durable
/// record. This is the *only* place a record is retired: the ack is
/// written strictly after the reply is delivered to the caller's
/// channel, so `accepted ⇒ eventually resolved-or-failed` holds across
/// a `kill -9` anywhere (a crash between reply and ack redelivers; a
/// crash before the reply redelivers; nothing is ever dropped).
fn resolve(request: Request, result: Result<ServeReply, ServeError>, metrics: &MetricsRegistry) {
    let _ = request.reply.send(result);
    if let Some(ticket) = request.ticket {
        // A refused double ack (redelivery raced the original) or a
        // failed ack write (the record legally redelivers after the
        // next restart) both leave the ledger consistent.
        if let Ok(true) = ticket.queue.ack(ticket.id) {
            metrics.observe_duration("ack_latency_us", request.enqueued.elapsed());
            metrics.set_gauge("disk_queue_depth", ticket.queue.depth() as f64);
        }
    }
}

/// Per-class shed accounting: the aggregate counter plus one counter
/// per priority class (so dashboards can verify Batch absorbs the
/// sheds).
fn count_shed(metrics: &MetricsRegistry, class: Priority) {
    metrics.incr("requests_shed", 1);
    match class {
        Priority::Interactive => metrics.incr("requests_shed_interactive", 1),
        Priority::Standard => metrics.incr("requests_shed_standard", 1),
        Priority::Batch => metrics.incr("requests_shed_batch", 1),
    }
}

/// A ticket for a request the server accepted.
#[derive(Debug)]
pub struct PendingInference {
    rx: Receiver<Result<ServeReply, ServeError>>,
}

impl PendingInference {
    /// Blocks until the server answers, returning just the output
    /// tensor. Every accepted request is answered exactly once
    /// (output, timeout, or backend error), so this returns as soon
    /// as the request's batch completes.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        self.wait_reply().map(|r| r.output)
    }

    /// Blocks until the server answers, returning the full reply
    /// (output plus the `degraded` brownout flag).
    pub fn wait_reply(self) -> Result<ServeReply, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Disconnected)?
    }

    /// Like [`wait`](Self::wait) but gives up after `timeout` (the
    /// request keeps running; its eventual reply is discarded).
    pub fn wait_timeout(self, timeout: Duration) -> Result<Tensor, ServeError> {
        self.wait_reply_timeout(timeout).map(|r| r.output)
    }

    /// Like [`wait_reply`](Self::wait_reply) with a deadline.
    pub fn wait_reply_timeout(self, timeout: Duration) -> Result<ServeReply, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(reply) => reply,
            Err(RecvTimeoutError::Timeout) => Err(ServeError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::Disconnected),
        }
    }
}

/// The dynamic-batching inference server.
///
/// See the crate docs for the threading model. Construct with
/// [`InferenceServer::new`] over any set of [`ExecutionBackend`]s, or
/// [`InferenceServer::from_deployment`] to serve from every FPGA slot of
/// one deployment; [`Fleet::new`] builds one over N instances.
pub struct InferenceServer {
    core: Arc<Core>,
    batcher: Option<JoinHandle<()>>,
    /// Fleet only: the thread that replaces failed instances.
    supervisor: Option<JoinHandle<()>>,
    locations: Vec<String>,
    started: Instant,
    /// Disk-queue mode: the durable admission log.
    durable: Option<Arc<DiskQueue>>,
    /// Disk-queue mode: the thread re-injecting recovered records.
    redelivery: Option<JoinHandle<()>>,
}

impl fmt::Debug for InferenceServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InferenceServer")
            .field("backends", &self.locations)
            .field("config", &self.core.config)
            .finish()
    }
}

impl InferenceServer {
    /// Starts a server dispatching over the given backends (one worker
    /// thread per backend, plus the batcher thread).
    pub fn new(
        backends: Vec<Box<dyn ExecutionBackend>>,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        InferenceServer::start(
            config,
            vec![Instance::new(None, None)],
            vec![backends],
            0,
            None,
        )
    }

    /// Starts the server over `instances`, installing `backends[k]` as
    /// generation 0 of instance `k`. A fleet passes the channel to its
    /// supervisor, whose thread it attaches afterwards.
    fn start(
        config: ServeConfig,
        instances: Vec<Instance>,
        backends: Vec<Vec<Box<dyn ExecutionBackend>>>,
        min_healthy: usize,
        supervisor: Option<Sender<SupervisorMsg>>,
    ) -> Result<Self, ServeError> {
        if backends.is_empty() || backends.iter().any(Vec::is_empty) {
            return Err(ServeError::NoBackends);
        }
        // Disk-queue mode: open (running crash recovery) before any
        // thread starts, so a failure leaves nothing running.
        let recovered = match &config.queue {
            QueueBackend::InMemory => None,
            QueueBackend::Disk(queue_config) => {
                Some(DiskQueue::open(queue_config.clone()).map_err(queue_err)?)
            }
        };
        let (core, batcher) = Core::start(config, instances, min_healthy, supervisor);
        let mut locations = Vec::new();
        for (replica, lanes) in backends.into_iter().enumerate() {
            locations.extend(lanes.iter().map(|b| b.location()));
            core.install(replica, 0, lanes);
        }
        // Re-inject every record that was accepted but unresolved when
        // the previous process died.
        let (durable, redelivery) = match recovered {
            None => (None, None),
            Some((queue, report)) => {
                let queue = Arc::new(queue);
                let thread = spawn_redelivery(Arc::clone(&queue), report, Arc::clone(&core));
                (Some(queue), Some(thread))
            }
        };
        Ok(InferenceServer {
            core,
            batcher: Some(batcher),
            supervisor: None,
            locations,
            started: Instant::now(),
            durable,
            redelivery,
        })
    }

    /// Starts a server over every FPGA slot of one deployment (a
    /// multi-slot F1 instance serves from all its FPGAs; an on-premise
    /// board serves from one).
    pub fn from_deployment(
        deployed: DeployedAccelerator,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        let backends = deployed
            .into_replicas()
            .into_iter()
            .map(|r| Box::new(r) as Box<dyn ExecutionBackend>)
            .collect();
        InferenceServer::new(backends, config)
    }

    /// Where the server's backends run.
    pub fn backend_locations(&self) -> &[String] {
        &self.locations
    }

    /// Submits one image with the default timeout at [`Priority::Standard`].
    /// Returns a ticket, or fails fast when the queue is full
    /// ([`ServeError::Overloaded`]) or the server is draining
    /// ([`ServeError::ShuttingDown`]).
    pub fn submit(&self, tensor: Tensor) -> Result<PendingInference, ServeError> {
        self.submit_with_class(tensor, self.core.config.default_timeout, Priority::Standard)
    }

    /// Submits one image with an explicit deadline at [`Priority::Standard`].
    pub fn submit_with_timeout(
        &self,
        tensor: Tensor,
        timeout: Duration,
    ) -> Result<PendingInference, ServeError> {
        self.submit_with_class(tensor, timeout, Priority::Standard)
    }

    /// Submits one image with the default timeout at an explicit
    /// priority class.
    pub fn submit_with_priority(
        &self,
        tensor: Tensor,
        class: Priority,
    ) -> Result<PendingInference, ServeError> {
        self.submit_with_class(tensor, self.core.config.default_timeout, class)
    }

    /// Submits one image with an explicit deadline and priority class.
    /// A fleet also sheds new load while fewer than
    /// [`FleetConfig::min_healthy`] instances are healthy
    /// ([`ShedReason::MinHealthyFloor`]).
    pub fn submit_with_class(
        &self,
        tensor: Tensor,
        timeout: Duration,
        class: Priority,
    ) -> Result<PendingInference, ServeError> {
        let core = &self.core;
        if !core.accepting.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        if core.min_healthy > 0 && core.healthy_instances() < core.min_healthy {
            core.metrics.incr("requests_rejected_overloaded", 1);
            return Err(ServeError::Overloaded(ShedReason::MinHealthyFloor));
        }
        // Disk-queue mode: the request is durable *before* admission —
        // a crash from here on redelivers it, same class, against its
        // absolute deadline.
        let ticket = match &self.durable {
            None => None,
            Some(queue) => {
                let payload =
                    durable::encode_request(&tensor, timeout, durable::deadline_epoch_us(timeout));
                let id = queue.append(&payload, class).map_err(queue_err)?;
                core.metrics
                    .set_gauge("disk_queue_depth", queue.depth() as f64);
                Some(DurableTicket {
                    queue: Arc::clone(queue),
                    id,
                })
            }
        };
        let (reply_tx, reply_rx) = bounded(1);
        let now = Instant::now();
        let request = Request {
            tensor,
            class,
            enqueued: now,
            deadline: now + timeout,
            reply: reply_tx,
            ticket,
        };
        match core.admission.try_push(request, class) {
            Ok(()) => {
                core.metrics.incr("requests_accepted", 1);
                core.metrics
                    .observe("queue_depth", core.admission.len() as f64);
                Ok(PendingInference { rx: reply_rx })
            }
            Err(PushError::Full(request)) => {
                core.metrics.incr("requests_rejected_overloaded", 1);
                // The durable record (if any) is resolved as rejected,
                // so it will not redeliver.
                resolve(
                    request,
                    Err(ServeError::Overloaded(ShedReason::QueueFull)),
                    &core.metrics,
                );
                Err(ServeError::Overloaded(ShedReason::QueueFull))
            }
            Err(PushError::Closed(request)) => {
                resolve(request, Err(ServeError::ShuttingDown), &core.metrics);
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Submits one image and blocks for its result.
    pub fn infer(&self, tensor: Tensor) -> Result<Tensor, ServeError> {
        self.submit(tensor)?.wait()
    }

    /// Live metrics: request counters, queue-depth and batch-size
    /// distributions, latency percentiles, the throughput gauge and,
    /// in a fleet, breaker states and adaptive-concurrency limits.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.core.metrics.snapshot();
        let elapsed = self.started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            let rps = snap.counter("requests_completed") as f64 / elapsed;
            snap.set_gauge("throughput_rps", rps);
        }
        let mut total_limit = None;
        for (i, instance) in self.core.instances.iter().enumerate() {
            if let Some(breaker) = &instance.breaker {
                snap.set_gauge(
                    &format!("breaker{i}_state"),
                    breaker.state().as_gauge() as f64,
                );
            }
            if let Some(aimd) = &instance.aimd {
                let limit = aimd.limit();
                *total_limit.get_or_insert(0) += limit;
                snap.set_gauge(&format!("instance{i}_concurrency_limit"), limit as f64);
            }
        }
        if let Some(total) = total_limit {
            snap.set_gauge("concurrency_limit", total as f64);
        }
        if let Some(queue) = &self.durable {
            snap.set_gauge("disk_queue_depth", queue.depth() as f64);
        }
        snap
    }

    /// Stops accepting new requests, drains every request already
    /// accepted (each still gets its reply), joins all threads, and
    /// returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop();
        self.metrics()
    }

    fn stop(&mut self) {
        self.core.accepting.store(false, Ordering::SeqCst);
        // The redelivery thread pushes into the admission queue: join
        // it first so every recovered record is back in flight, then
        // close the queue so the batcher drains what is left (and
        // re-dispatches whatever a failing instance hands back).
        if let Some(r) = self.redelivery.take() {
            let _ = r.join();
        }
        self.core.admission.close();
        if let Some(b) = self.batcher.take() {
            let _ = b.join();
        }
        // The supervisor stops before the lanes close, so no
        // replacement can be swapped in behind the drain.
        if let Some(s) = self.supervisor.take() {
            self.core.stop_supervisor();
            let _ = s.join();
        }
        self.core.retire_all();
        if let Some(queue) = &self.durable {
            // Everything accepted is resolved and acked; fold the acks
            // into a final checkpoint so the next open starts clean.
            // Best-effort: a failure only means a longer journal replay.
            let _ = queue.checkpoint();
        }
    }
}

impl Drop for InferenceServer {
    fn drop(&mut self) {
        // A dropped server still drains: threads only exit after the
        // queue empties, and every in-flight request is answered.
        self.stop();
    }
}

/// Maps a queue failure onto the serving error surface.
fn queue_err(e: condor_queue::QueueError) -> ServeError {
    ServeError::Backend(CondorError::new("queue", e.to_string()))
}

/// Starts the redelivery thread: recovered records are re-injected in
/// priority-then-FIFO order (classes come from the CQR2 frames, FIFO
/// from the recovery scan), fire-and-forget (the original caller died
/// with the previous process; the record's obligation is resolution,
/// not reply delivery). Records whose embedded absolute deadline
/// already expired are failed-and-acked as timed out instead of
/// burning backend time; poisoned records — payloads that no longer
/// decode — are counted failed and acked so they cannot loop forever.
fn spawn_redelivery(
    queue: Arc<DiskQueue>,
    report: condor_queue::RecoveryReport,
    core: Arc<Core>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let metrics = &core.metrics;
        let mut pending = report.pending;
        // Stable sort: Interactive re-enters first, FIFO within class.
        pending.sort_by_key(|record| record.class.index());
        for record in pending {
            metrics.incr("requests_redelivered", 1);
            let Some((tensor, timeout, deadline_epoch_us)) =
                durable::decode_request(&record.payload)
            else {
                metrics.incr("requests_failed", 1);
                let _ = queue.ack(record.id);
                continue;
            };
            let now_epoch = durable::epoch_micros_now();
            if deadline_epoch_us != 0 && now_epoch >= deadline_epoch_us {
                // The caller's deadline passed while the record sat on
                // disk: fail-and-ack, never execute.
                metrics.incr("requests_timed_out", 1);
                let _ = queue.ack(record.id);
                continue;
            }
            let remaining = if deadline_epoch_us == 0 {
                timeout
            } else {
                Duration::from_micros(deadline_epoch_us - now_epoch).min(timeout)
            };
            // The rx side is dropped: replies go nowhere, but resolve()
            // still acks the record.
            let (reply_tx, _) = bounded(1);
            let now = Instant::now();
            let request = Request {
                tensor,
                class: record.class,
                enqueued: now,
                deadline: now + remaining,
                reply: reply_tx,
                ticket: Some(DurableTicket {
                    queue: Arc::clone(&queue),
                    id: record.id,
                }),
            };
            // Blocking push: redelivery yields to live traffic when the
            // queue is full. A push failure means the server is already
            // gone; the record stays pending for the next restart.
            if core.admission.push(request, record.class).is_err() {
                return;
            }
        }
        metrics.set_gauge("disk_queue_depth", queue.depth() as f64);
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor::deploy::DeployTarget;
    use condor::Condor;
    use condor_dataflow::PipelineModel;
    use condor_nn::{dataset, zoo};
    use std::sync::{Condvar, Mutex};

    fn deployed_lenet() -> DeployedAccelerator {
        Condor::from_network(zoo::lenet_weighted(11))
            .board("aws-f1")
            .freq_mhz(180.0)
            .build()
            .unwrap()
            .deploy(&DeployTarget::OnPremise)
            .unwrap()
    }

    fn images(n: usize, seed: u64) -> Vec<Tensor> {
        dataset::mnist_like(n, seed)
            .into_iter()
            .map(|s| s.image)
            .collect()
    }

    /// Wraps a backend behind a gate so tests can hold batches in
    /// flight deterministically.
    struct GatedBackend {
        inner: Box<dyn ExecutionBackend>,
        gate: Arc<(Mutex<bool>, Condvar)>,
    }

    impl GatedBackend {
        fn open(gate: &Arc<(Mutex<bool>, Condvar)>) {
            let (lock, cv) = gate.as_ref();
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
    }

    impl ExecutionBackend for GatedBackend {
        fn infer_batch(&self, imgs: &[Tensor]) -> Result<Vec<Tensor>, CondorError> {
            let (lock, cv) = self.gate.as_ref();
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            drop(open);
            self.inner.infer_batch(imgs)
        }
        fn pipeline(&self) -> PipelineModel {
            self.inner.pipeline()
        }
        fn location(&self) -> String {
            format!("gated:{}", self.inner.location())
        }
    }

    #[test]
    fn single_request_roundtrip_matches_direct_inference() {
        let deployed = deployed_lenet();
        let img = images(1, 5).remove(0);
        let expect = deployed.infer_batch(std::slice::from_ref(&img)).unwrap();
        let server = InferenceServer::from_deployment(deployed, ServeConfig::default()).unwrap();
        let got = server.infer(img).unwrap();
        assert_eq!(got.as_slice(), expect[0].as_slice());
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_accepted"), 1);
        assert_eq!(snap.counter("requests_completed"), 1);
    }

    #[test]
    fn batch_window_flushes_partial_batches() {
        // max_batch far above what we submit: only the window can close
        // the batch, and all requests must still complete.
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_max_batch(1000)
                .with_batch_window(Duration::from_millis(20))
                .with_default_timeout(Duration::from_secs(30)),
        )
        .unwrap();
        let handles: Vec<_> = images(4, 6)
            .into_iter()
            .map(|img| server.submit(img).unwrap())
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_completed"), 4);
        let batches = snap.histogram("batch_size").unwrap();
        assert!(batches.count >= 1);
        // The window coalesced at least some of the 4 submissions.
        assert!(batches.max >= 1.0 && batches.max <= 4.0);
    }

    #[test]
    fn max_batch_caps_dispatch_size() {
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_max_batch(2)
                .with_batch_window(Duration::from_millis(50))
                .with_default_timeout(Duration::from_secs(30)),
        )
        .unwrap();
        let handles: Vec<_> = images(6, 7)
            .into_iter()
            .map(|img| server.submit(img).unwrap())
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_completed"), 6);
        assert!(snap.histogram("batch_size").unwrap().max <= 2.0);
    }

    #[test]
    fn expired_requests_time_out_instead_of_executing() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let replicas = deployed_lenet().into_replicas();
        let backend = Box::new(GatedBackend {
            inner: Box::new(replicas.into_iter().next().unwrap()),
            gate: Arc::clone(&gate),
        });
        let server = InferenceServer::new(
            vec![backend],
            ServeConfig::default()
                .with_max_batch(1)
                .with_batch_window(Duration::from_millis(1)),
        )
        .unwrap();

        // First request occupies the (gated) worker.
        let occupier = server
            .submit_with_timeout(images(1, 8).remove(0), Duration::from_secs(30))
            .unwrap();
        // Second request gets a zero deadline: it can only expire.
        let doomed = server
            .submit_with_timeout(images(1, 9).remove(0), Duration::ZERO)
            .unwrap();
        assert_eq!(doomed.wait(), Err(ServeError::Timeout));

        GatedBackend::open(&gate);
        occupier.wait().unwrap();
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_timed_out"), 1);
        assert_eq!(snap.counter("requests_completed"), 1);
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let replicas = deployed_lenet().into_replicas();
        let backend = Box::new(GatedBackend {
            inner: Box::new(replicas.into_iter().next().unwrap()),
            gate: Arc::clone(&gate),
        });
        let server = InferenceServer::new(
            vec![backend],
            ServeConfig::default()
                .with_max_batch(1)
                .with_batch_window(Duration::ZERO)
                .with_queue_capacity(2)
                .with_default_timeout(Duration::from_secs(60)),
        )
        .unwrap();

        // With the worker gated shut, the pipeline can hold only a
        // bounded number of requests (worker lane + batcher + queue).
        // Keep submitting: we must hit Overloaded well before 100.
        let mut handles = Vec::new();
        let mut overloaded = false;
        for img in images(100, 10) {
            match server.submit(img) {
                Ok(h) => handles.push(h),
                Err(ServeError::Overloaded(ShedReason::QueueFull)) => {
                    overloaded = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
            // Give the batcher a moment to drain before deciding the
            // queue is truly full rather than momentarily busy.
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(overloaded, "bounded queue never rejected");
        assert!(handles.len() < 100);

        // Release the gate: every accepted request still completes.
        GatedBackend::open(&gate);
        for h in handles {
            h.wait().unwrap();
        }
        let snap = server.shutdown();
        assert!(snap.counter("requests_rejected_overloaded") >= 1);
        assert_eq!(snap.counter("requests_failed"), 0);
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_batch_window(Duration::from_millis(5))
                .with_default_timeout(Duration::from_secs(30)),
        )
        .unwrap();
        let handles: Vec<_> = images(10, 12)
            .into_iter()
            .map(|img| server.submit(img).unwrap())
            .collect();
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_completed"), 10);
        // Replies are still deliverable after shutdown returned.
        for h in handles {
            h.wait().unwrap();
        }
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let deployed = deployed_lenet();
        let img = images(1, 13).remove(0);
        let server = InferenceServer::from_deployment(deployed, ServeConfig::default()).unwrap();
        // `shutdown` consumes the server, so probe the accepting flag
        // through a clone-free drop/rebuild: simplest observable is that
        // a server mid-drop cannot be submitted to — covered by the
        // ShuttingDown path in submit via the accepting flag.
        server.core.accepting.store(false, Ordering::SeqCst);
        assert_eq!(server.submit(img).unwrap_err(), ServeError::ShuttingDown);
    }

    /// A backend whose every batch panics (a bug, not a fault) after
    /// `delay`.
    struct PanickingBackend {
        inner: Box<dyn ExecutionBackend>,
        delay: Duration,
    }

    impl ExecutionBackend for PanickingBackend {
        fn infer_batch(&self, _: &[Tensor]) -> Result<Vec<Tensor>, CondorError> {
            std::thread::sleep(self.delay);
            panic!("backend bug");
        }
        fn pipeline(&self) -> PipelineModel {
            self.inner.pipeline()
        }
        fn location(&self) -> String {
            format!("panicking:{}", self.inner.location())
        }
    }

    #[test]
    fn a_worker_panic_disconnects_its_batch_without_hanging_shutdown() {
        let dir = tmp_queue_dir("panic");
        let queue = DiskQueueConfig::new(&dir);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let inner = Box::new(deployed_lenet().into_replicas().remove(0));
            let server = InferenceServer::new(
                vec![Box::new(PanickingBackend {
                    inner,
                    delay: Duration::from_millis(100),
                })],
                ServeConfig::default()
                    .with_max_batch(1)
                    .with_default_timeout(Duration::from_secs(30))
                    .with_queue(QueueBackend::Disk(queue)),
            )
            .unwrap();
            // Batch 1 runs into the panic while batch 2 waits in the
            // lane's channel and the batcher blocks sending batch 3.
            let pending: Vec<_> = images(3, 60)
                .into_iter()
                .map(|img| server.submit(img).unwrap())
                .collect();
            let mut errors: Vec<_> = pending.into_iter().map(|p| p.wait().unwrap_err()).collect();
            // The dead lane is the only one left, so a later request is
            // answered by it too.
            errors.push(server.infer(images(1, 61).remove(0)).unwrap_err());
            let _ = tx.send((errors, server.shutdown()));
        });
        let (errors, snap) = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("a reply or shutdown hung after a worker panicked");
        assert_eq!(errors, vec![ServeError::Disconnected; 4]);
        assert_eq!(snap.counter("requests_dropped_worker_died"), 4);
        // Every record was resolved, so none redelivers into the same
        // panicking backend after a restart.
        let (_, report) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        assert!(report.pending.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_backend_set_is_rejected() {
        assert_eq!(
            InferenceServer::new(Vec::new(), ServeConfig::default()).unwrap_err(),
            ServeError::NoBackends
        );
    }

    #[test]
    fn backend_errors_propagate_to_the_caller() {
        // An unweighted network deploys but cannot execute; the server
        // must surface that as a Backend error, not hang.
        let deployed = Condor::from_network(zoo::lenet())
            .board("aws-f1")
            .build()
            .unwrap()
            .deploy(&DeployTarget::OnPremise)
            .unwrap();
        let server = InferenceServer::from_deployment(deployed, ServeConfig::default()).unwrap();
        let err = server.infer(images(1, 14).remove(0)).unwrap_err();
        match err {
            ServeError::Backend(e) => assert!(e.message.contains("no weights")),
            other => panic!("expected backend error, got {other:?}"),
        }
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_failed"), 1);
    }

    #[test]
    fn transient_backend_faults_are_retried_in_the_worker() {
        use condor_faults::{FaultPlan, FaultRule};
        // Every first attempt on the single lane fails transiently; the
        // in-worker retry must absorb it without the caller noticing.
        let handle = FaultPlan::new(21)
            .rule(FaultRule::at("serve.backend0").nth_call(0).fail_transient())
            .install();
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_default_timeout(Duration::from_secs(30))
                .with_faults(handle.clone()),
        )
        .unwrap();
        server.infer(images(1, 20).remove(0)).unwrap();
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_completed"), 1);
        assert_eq!(snap.counter("requests_failed"), 0);
        assert_eq!(snap.counter("backend_retries"), 1);
        assert_eq!(handle.fired(), 1);
    }

    #[test]
    fn permanent_faults_fail_without_retry() {
        use condor_faults::{FaultPlan, FaultRule};
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_default_timeout(Duration::from_secs(30))
                .with_fault_plan(
                    FaultPlan::new(22)
                        .rule(FaultRule::at("serve.backend0").nth_call(0).fail_permanent()),
                ),
        )
        .unwrap();
        let err = server.infer(images(1, 23).remove(0)).unwrap_err();
        assert!(matches!(&err, ServeError::Backend(e) if !e.transient));
        assert!(!err.is_transient());
        let snap = server.shutdown();
        assert_eq!(snap.counter("backend_retries"), 0);
        assert_eq!(snap.counter("requests_failed"), 1);
    }

    #[test]
    fn failing_lane_is_quarantined_and_recovers() {
        use condor_faults::{FaultPlan, FaultRule};
        // Two lanes; lane 0's fault window covers exactly the first
        // batch's whole retry budget, so that batch fails. Threshold 1
        // quarantines the lane; later traffic sheds to lane 1 and lane
        // 0's eventual re-probe (faults exhausted) brings it back.
        let handle = FaultPlan::new(31)
            .rule(
                FaultRule::at("serve.backend0")
                    .first_calls(2)
                    .fail_transient(),
            )
            .install();
        let backends: Vec<Box<dyn ExecutionBackend>> = deployed_lenet()
            .into_replicas()
            .into_iter()
            .map(|r| Box::new(r) as Box<dyn ExecutionBackend>)
            .chain(
                deployed_lenet()
                    .into_replicas()
                    .into_iter()
                    .map(|r| Box::new(r) as Box<dyn ExecutionBackend>),
            )
            .collect();
        let server = InferenceServer::new(
            backends,
            ServeConfig::default()
                .with_max_batch(1)
                .with_batch_window(Duration::ZERO)
                .with_default_timeout(Duration::from_secs(30))
                .with_failure_threshold(1)
                .with_backend_attempts(2)
                .with_quarantine(Duration::from_millis(20))
                .with_faults(handle.clone()),
        )
        .unwrap();

        // First request lands on lane 0 (least loaded, both idle),
        // burns both attempts, fails, and quarantines the lane.
        let first = server.infer(images(1, 30).remove(0));
        assert!(first.is_err());
        // Subsequent requests shed to lane 1 and succeed.
        for img in images(4, 31) {
            server.infer(img).unwrap();
        }
        // After the quarantine expires the re-probe must succeed.
        std::thread::sleep(Duration::from_millis(25));
        for img in images(4, 32) {
            server.infer(img).unwrap();
        }
        let snap = server.shutdown();
        assert_eq!(snap.counter("lane_marked_unhealthy"), 1);
        assert_eq!(snap.counter("requests_completed"), 8);
        assert!(snap.counter("lane_recovered") <= 1);
    }

    #[test]
    fn empty_fault_plan_leaves_serving_unchanged() {
        use condor_faults::FaultPlan;
        let handle = FaultPlan::new(99).install();
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_default_timeout(Duration::from_secs(30))
                .with_faults(handle.clone()),
        )
        .unwrap();
        for img in images(3, 40) {
            server.infer(img).unwrap();
        }
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_completed"), 3);
        assert_eq!(snap.counter("backend_retries"), 0);
        assert_eq!(handle.fired(), 0);
    }

    #[test]
    fn metrics_expose_latency_and_throughput() {
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default().with_default_timeout(Duration::from_secs(30)),
        )
        .unwrap();
        for img in images(5, 15) {
            server.infer(img).unwrap();
        }
        let snap = server.metrics();
        let latency = snap.histogram("latency_us").unwrap();
        assert_eq!(latency.count, 5);
        assert!(latency.p50 > 0.0 && latency.p99 >= latency.p50);
        assert!(snap.gauge("throughput_rps").unwrap() > 0.0);
        server.shutdown();
    }

    /// Fresh scratch directory for the disk-queue tests.
    fn tmp_queue_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU64;
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "condor-serve-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_queue_mode_serves_and_drains_durably() {
        let dir = tmp_queue_dir("roundtrip");
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_default_timeout(Duration::from_secs(30))
                .with_queue(QueueBackend::Disk(DiskQueueConfig::new(&dir))),
        )
        .unwrap();
        for img in images(4, 21) {
            server.infer(img).unwrap();
        }
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_completed"), 4);
        assert_eq!(snap.counter("requests_redelivered"), 0);
        // Every completion acked its durable record end to end.
        assert_eq!(snap.histogram("ack_latency_us").unwrap().count, 4);
        assert_eq!(snap.gauge("disk_queue_depth"), Some(0.0));
        // A fresh recovery finds nothing pending and no double acks.
        let (_, report) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        assert!(report.pending.is_empty());
        assert_eq!(report.double_acks, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_records_are_redelivered_and_resolved() {
        // Simulate a crashed predecessor: durable records exist on disk
        // with no live caller, one of them poisoned.
        let dir = tmp_queue_dir("redeliver");
        {
            let (queue, _) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
            for img in images(4, 22) {
                let payload = durable::encode_request(
                    &img,
                    Duration::from_secs(30),
                    durable::deadline_epoch_us(Duration::from_secs(30)),
                );
                queue.append(&payload, Priority::Standard).unwrap();
            }
            queue
                .append(b"not a request payload", Priority::Batch)
                .unwrap();
        }
        // Startup must replay all five: four infer to completion (their
        // replies go nowhere, their acks land), the poisoned one is
        // failed and acked rather than looping or crashing the thread.
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_default_timeout(Duration::from_secs(30))
                .with_queue(QueueBackend::Disk(DiskQueueConfig::new(&dir))),
        )
        .unwrap();
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_redelivered"), 5);
        assert_eq!(snap.counter("requests_completed"), 4);
        assert_eq!(snap.counter("requests_failed"), 1);
        assert_eq!(snap.counter("requests_accepted"), 0);
        let (_, report) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        assert!(report.pending.is_empty(), "redelivered records must ack");
        assert_eq!(report.double_acks, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interactive_class_round_trips_with_undegraded_reply() {
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default().with_default_timeout(Duration::from_secs(30)),
        )
        .unwrap();
        let reply = server
            .submit_with_priority(images(1, 50).remove(0), Priority::Interactive)
            .unwrap()
            .wait_reply()
            .unwrap();
        assert!(!reply.degraded, "no brownout controller: never degraded");
        assert_eq!(reply.output.shape().c, 10);
        server.shutdown();
    }

    #[test]
    fn forced_codel_sheds_reject_with_retry_hint_and_feed_brownout() {
        use condor_faults::{FaultPlan, FaultRule};
        // `shed.codel` forced on: every admitted request is shed before
        // it can batch, with the typed reason and per-class counters,
        // and the brownout controller hears every shed.
        let controller = Arc::new(BrownoutController::with_system_clock(
            BrownoutConfig::new()
                .with_engage_sheds(2)
                .with_disengage_quiet(Duration::from_secs(60)),
        ));
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_default_timeout(Duration::from_secs(30))
                .with_brownout(Arc::clone(&controller))
                .with_fault_plan(
                    FaultPlan::new(41).rule(FaultRule::at("shed.codel").always().fail_transient()),
                ),
        )
        .unwrap();
        for img in images(3, 51) {
            let pending = server.submit(img).unwrap();
            match pending.wait() {
                Err(ServeError::Overloaded(ShedReason::CoDelShed { retry_after })) => {
                    assert!(retry_after > Duration::ZERO);
                }
                other => panic!("expected a CoDel shed, got {other:?}"),
            }
        }
        assert!(controller.active(), "sustained sheds engage brownout");
        assert_eq!(controller.engages(), 1);
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_shed"), 3);
        assert_eq!(snap.counter("requests_shed_standard"), 3);
        assert_eq!(snap.counter("requests_shed_interactive"), 0);
        assert_eq!(snap.counter("requests_completed"), 0);
        assert_eq!(snap.gauge("brownout_active"), Some(1.0));
        assert!(snap.histogram("queue_sojourn_us").is_none());
    }

    #[test]
    fn expired_recovered_records_fail_and_ack_as_timed_out() {
        let dir = tmp_queue_dir("expired");
        {
            let (queue, _) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
            // Deadline already in the past: must never execute.
            let stale = durable::encode_request(&images(1, 23)[0], Duration::from_secs(30), 1);
            queue.append(&stale, Priority::Interactive).unwrap();
            // Deadline far in the future: must complete normally.
            let fresh = durable::encode_request(
                &images(1, 24)[0],
                Duration::from_secs(30),
                durable::deadline_epoch_us(Duration::from_secs(30)),
            );
            queue.append(&fresh, Priority::Batch).unwrap();
        }
        let server = InferenceServer::from_deployment(
            deployed_lenet(),
            ServeConfig::default()
                .with_default_timeout(Duration::from_secs(30))
                .with_queue(QueueBackend::Disk(DiskQueueConfig::new(&dir))),
        )
        .unwrap();
        let snap = server.shutdown();
        assert_eq!(snap.counter("requests_redelivered"), 2);
        assert_eq!(snap.counter("requests_timed_out"), 1);
        assert_eq!(snap.counter("requests_completed"), 1);
        let (_, report) = DiskQueue::open(DiskQueueConfig::new(&dir)).unwrap();
        assert!(report.pending.is_empty(), "expired record must still ack");
        assert_eq!(report.double_acks, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
