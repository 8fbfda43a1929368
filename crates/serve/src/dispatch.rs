//! The dispatch core behind every front end: the batcher thread that
//! turns admitted requests into hardware batches, and the lanes that
//! execute them, grouped into *instances*.
//!
//! A single [`InferenceServer`](crate::InferenceServer) is one
//! instance with no breaker and no supervisor. A
//! [`Fleet`](crate::Fleet) is N instances, each behind a
//! [`CircuitBreaker`] and an optional AIMD limit on its in-flight
//! images. The batcher picks an instance, then the least-loaded
//! selectable lane inside it. A batch that a fleet instance fails
//! terminally goes back to the batcher — the worker never blocks on a
//! queue or a peer lane — and is re-dispatched to a peer instance, up
//! to replicas + 1 dispatches in all.

use crate::admission::{AdmissionQueue, PopOutcome, Shed};
use crate::fleet::SupervisorMsg;
use crate::{count_shed, resolve, Request, ServeConfig, ServeError, ServeReply, ShedReason};
use condor::{CondorError, ExecutionBackend, MetricsRegistry};
use condor_faults::retry::SystemClock;
use condor_queue::{AimdController, BreakerState, CircuitBreaker};
use condor_tensor::Tensor;
use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Health of one dispatch lane, shared between its worker (which
/// updates it after every batch) and the batcher (which reads it when
/// picking a lane).
#[derive(Default)]
struct LaneState {
    /// Consecutive failed batches.
    consecutive_failures: usize,
    /// Set while the lane is quarantined; an expired instant means the
    /// lane is due for a re-probe.
    unhealthy_until: Option<Instant>,
    /// Set once the lane's backend panicked: its worker only answers
    /// `Disconnected` from then on.
    dead: bool,
}

/// One dispatch lane: a worker's channel plus its in-flight load and
/// health.
pub(crate) struct Lane {
    tx: Sender<Dispatch>,
    inflight: Arc<AtomicUsize>,
    health: Arc<Mutex<LaneState>>,
}

/// The live incarnation of one instance.
#[derive(Default)]
pub(crate) struct Incarnation {
    /// Its lanes; empty while the supervisor replaces the instance.
    pub(crate) lanes: Vec<Lane>,
    pub(crate) generation: u64,
}

/// A group of lanes that fail, and are replaced, together: one F1
/// instance's FPGA slots, say.
pub(crate) struct Instance {
    pub(crate) live: Mutex<Incarnation>,
    /// Fleet instances only; it outlives generations (the supervisor
    /// resets it when a replacement swaps in).
    pub(crate) breaker: Option<CircuitBreaker>,
    /// Adaptive limit on the instance's in-flight images.
    pub(crate) aimd: Option<AimdController>,
}

impl Instance {
    pub(crate) fn new(breaker: Option<CircuitBreaker>, aimd: Option<AimdController>) -> Self {
        Instance {
            live: Mutex::default(),
            breaker,
            aimd,
        }
    }

    /// Healthy means serving normally: no breaker, or a closed one (a
    /// tripped instance stays unhealthy until a half-open probe run
    /// closes its breaker or its replacement resets it).
    pub(crate) fn healthy(&self) -> bool {
        self.breaker
            .as_ref()
            .is_none_or(|b| b.state() == BreakerState::Closed)
    }
}

/// A batch on its way to a lane, or back from an instance that failed
/// it.
struct Dispatch {
    requests: Vec<Request>,
    /// Instance dispatches so far (budget: replicas + 1).
    dispatches: usize,
    /// The instance that failed this batch last, and its error.
    failed: Option<(usize, CondorError)>,
    /// Whether this dispatch is a half-open breaker probe.
    probe: bool,
    /// When the batch left the batcher (the AIMD latency sample).
    sent: Instant,
}

/// Everything a request passes through after `submit`, shared by the
/// front end, the batcher, the workers and (in a fleet) the
/// supervisor.
pub(crate) struct Core {
    pub(crate) config: ServeConfig,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) admission: AdmissionQueue<Request>,
    pub(crate) instances: Vec<Instance>,
    /// Fewest healthy instances required to admit (0 admits always).
    pub(crate) min_healthy: usize,
    pub(crate) accepting: AtomicBool,
    /// Fleet only: asks the supervisor to replace a tripped instance.
    supervisor: Option<Sender<SupervisorMsg>>,
    /// Workers hand failed fleet batches back to the batcher here.
    handback: Sender<Dispatch>,
    /// Batches dispatched and not yet answered, handed-back ones
    /// included; the batcher drains until it reaches zero.
    outstanding: AtomicUsize,
    rr: AtomicUsize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Where [`Core::pick`] sends a batch.
struct Target {
    replica: usize,
    generation: u64,
    probe: bool,
    tx: Sender<Dispatch>,
    inflight: Arc<AtomicUsize>,
}

impl Core {
    /// Builds the core around `instances` (lanes are installed with
    /// [`Core::install`]) and starts its batcher thread.
    pub(crate) fn start(
        config: ServeConfig,
        instances: Vec<Instance>,
        min_healthy: usize,
        supervisor: Option<Sender<SupervisorMsg>>,
    ) -> (Arc<Core>, JoinHandle<()>) {
        let admission = AdmissionQueue::new(
            config.queue_capacity.max(1),
            config.aging_limit,
            config.codel.clone(),
            Arc::new(SystemClock),
            config.faults.clone(),
        );
        let (handback, handback_rx) = unbounded();
        let core = Arc::new(Core {
            config,
            metrics: MetricsRegistry::new(),
            admission,
            instances,
            min_healthy,
            accepting: AtomicBool::new(true),
            supervisor,
            handback,
            outstanding: AtomicUsize::new(0),
            rr: AtomicUsize::new(0),
            workers: Mutex::new(Vec::new()),
        });
        let batcher_core = Arc::clone(&core);
        let batcher = std::thread::spawn(move || batcher_loop(batcher_core, handback_rx));
        (core, batcher)
    }

    fn is_fleet(&self) -> bool {
        self.supervisor.is_some()
    }

    /// Asks a fleet's supervisor thread to exit.
    pub(crate) fn stop_supervisor(&self) {
        if let Some(tx) = &self.supervisor {
            let _ = tx.send(SupervisorMsg::Shutdown);
        }
    }

    /// Starts one worker per backend and swaps them in as generation
    /// `generation` of instance `replica`. Fleet lanes consult the fault
    /// sites `fleet{replica}g{generation}.serve.backend{i}`, a single
    /// server's `serve.backend{i}`.
    pub(crate) fn install(
        self: &Arc<Self>,
        replica: usize,
        generation: u64,
        backends: Vec<Box<dyn ExecutionBackend>>,
    ) {
        let prefix = if self.is_fleet() {
            format!("fleet{replica}g{generation}.")
        } else {
            String::new()
        };
        let mut lanes = Vec::with_capacity(backends.len());
        let mut workers = self.workers.lock();
        for (idx, backend) in backends.into_iter().enumerate() {
            // Capacity 1 keeps at most one batch queued per lane, so a
            // stalled backend pushes back into the request queue instead
            // of hoarding work a faster lane could take.
            let (tx, rx) = bounded::<Dispatch>(1);
            let lane = Lane {
                tx,
                inflight: Arc::new(AtomicUsize::new(0)),
                health: Arc::new(Mutex::new(LaneState::default())),
            };
            let worker = Worker {
                core: Arc::clone(self),
                replica,
                generation,
                site: format!("{prefix}serve.backend{idx}"),
                inflight: Arc::clone(&lane.inflight),
                health: Arc::clone(&lane.health),
            };
            workers.push(std::thread::spawn(move || worker.run(backend, rx)));
            lanes.push(lane);
        }
        drop(workers);
        let mut live = self.instances[replica].live.lock();
        live.lanes = lanes;
        live.generation = generation;
    }

    /// Closes every lane and joins every worker. Called once the
    /// batcher (and any supervisor) has exited, so nothing is in
    /// flight and no lane can be installed behind this.
    pub(crate) fn retire_all(&self) {
        for instance in &self.instances {
            instance.live.lock().lanes.clear();
        }
        let workers = std::mem::take(&mut *self.workers.lock());
        for w in workers {
            let _ = w.join();
        }
    }

    /// Instances with lanes and no tripped breaker.
    pub(crate) fn healthy_instances(&self) -> usize {
        self.instances
            .iter()
            .filter(|i| !i.live.lock().lanes.is_empty() && i.healthy())
            .count()
    }

    /// Picks the healthy instance with the fewest in-flight images
    /// (round-robin tie-break), skipping `avoid`, then the least-loaded
    /// selectable lane inside it. An Open breaker refuses its instance
    /// outright — not even as a fallback; a HalfOpen breaker admits it
    /// only as a last-resort *probe* (bounded by the breaker, and
    /// suppressed while the `breaker.probe` fault site fires). An
    /// instance at its AIMD limit is demoted to a fallback — liveness
    /// beats the limit when every instance is saturated.
    fn pick(&self, avoid: Option<usize>) -> Option<Target> {
        // A concurrent trip can retire the chosen instance's lanes
        // between the scan and the lock below; a second scan then
        // finds a peer.
        for _ in 0..2 {
            let (replica, probe) = self.choose_instance(avoid)?;
            let instance = &self.instances[replica];
            let live = instance.live.lock();
            if live.lanes.is_empty() {
                continue;
            }
            // The probe slot is taken only here, when the batch will
            // certainly be sent, so probe slots cannot leak.
            if probe
                && (self.config.faults.check("breaker.probe").is_some()
                    || !instance.breaker.as_ref().is_some_and(CircuitBreaker::admit))
            {
                return None;
            }
            // Least-loaded dispatch over *healthy* lanes: quarantined
            // lanes are shed until their quarantine expires (the next
            // batch sent to an expired lane is its re-probe). If every
            // lane is quarantined or dead, fall back to a live one whose
            // quarantine ends soonest, and to a dead one last.
            let now = Instant::now();
            let lane = live
                .lanes
                .iter()
                .filter(|l| {
                    let health = l.health.lock();
                    !health.dead && health.unhealthy_until.is_none_or(|t| now >= t)
                })
                .min_by_key(|l| l.inflight.load(Ordering::SeqCst))
                .or_else(|| {
                    live.lanes.iter().min_by_key(|l| {
                        let health = l.health.lock();
                        (health.dead, health.unhealthy_until.unwrap_or(now))
                    })
                })?;
            return Some(Target {
                replica,
                generation: live.generation,
                probe,
                tx: lane.tx.clone(),
                inflight: Arc::clone(&lane.inflight),
            });
        }
        None
    }

    /// The instance [`Core::pick`] sends to, and whether the batch goes
    /// as a half-open probe.
    fn choose_instance(&self, avoid: Option<usize>) -> Option<(usize, bool)> {
        let n = self.instances.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        // Rank 0: closed breaker and headroom; 1: at its AIMD limit; 2:
        // half-open (probe only). Least loaded first within a rank; ties
        // go to the first in round-robin order.
        let (rank, _, replica) = (0..n)
            .map(|off| (start + off) % n)
            .filter(|&i| Some(i) != avoid)
            .filter_map(|i| {
                let instance = &self.instances[i];
                let live = instance.live.lock();
                let load: usize = live
                    .lanes
                    .iter()
                    .map(|l| l.inflight.load(Ordering::SeqCst))
                    .sum();
                let saturated = instance.aimd.as_ref().is_some_and(|a| load >= a.limit());
                let rank = match instance.breaker.as_ref().map(CircuitBreaker::state) {
                    _ if live.lanes.is_empty() => return None,
                    Some(BreakerState::Open) => return None,
                    Some(BreakerState::HalfOpen) => 2,
                    _ if saturated => 1,
                    _ => 0,
                };
                Some((rank, load, i))
            })
            .min_by_key(|&(rank, load, _)| (rank, load))?;
        Some((replica, rank == 2))
    }

    /// Sends a batch to a lane: a fresh batch to the best instance, a
    /// handed-back batch to a peer of the instance that failed it. The
    /// send blocks while the chosen lane is busy, which is what backs
    /// pressure up into the admission queue.
    fn dispatch(&self, mut batch: Dispatch) {
        let Some(target) = self.pick(batch.failed.as_ref().map(|(k, _)| *k)) else {
            self.fail_undispatched(batch);
            return;
        };
        let n = batch.requests.len();
        if batch.failed.take().is_some() {
            self.metrics.incr("requests_migrated", n as u64);
        }
        batch.dispatches += 1;
        batch.probe = target.probe;
        batch.sent = Instant::now();
        target.inflight.fetch_add(n, Ordering::SeqCst);
        self.metrics.observe("batch_size", n as f64);
        if let Err(failed) = target.tx.send(batch) {
            self.drop_on_dead_lane(failed.0, target.replica, target.generation);
            target.inflight.fetch_sub(n, Ordering::SeqCst);
            self.outstanding.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Answers a batch that reached a lane whose backend died. Callers
    /// see `Disconnected`, and in disk-queue mode the records are acked
    /// rather than left to redeliver forever. The batch counts as a
    /// failure of its instance (which also releases a probe's slot).
    fn drop_on_dead_lane(&self, batch: Dispatch, replica: usize, generation: u64) {
        self.metrics
            .incr("requests_dropped_worker_died", batch.requests.len() as u64);
        self.record_failure(replica, generation);
        for request in batch.requests {
            resolve(request, Err(ServeError::Disconnected), &self.metrics);
        }
    }

    /// Dispatches per batch: one per instance plus one, enough to walk
    /// off a dying instance onto every peer without looping forever
    /// under a total outage.
    fn budget(&self) -> usize {
        self.instances.len() + 1
    }

    /// Answers a batch no instance would take (only a fleet gets here:
    /// every instance is breaker-refused or being replaced). A handed-
    /// back batch fails with the error of the instance that failed it
    /// last; a fresh one is shed, so clients back off deliberately
    /// instead of burning their deadline.
    fn fail_undispatched(&self, batch: Dispatch) {
        for request in batch.requests {
            let error = match &batch.failed {
                Some((_, e)) => {
                    self.metrics.incr("requests_failed", 1);
                    ServeError::Backend(e.clone())
                }
                None => {
                    count_shed(&self.metrics, request.class);
                    ServeError::Overloaded(ShedReason::BreakerOpen)
                }
            };
            resolve(request, Err(error), &self.metrics);
        }
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
    }

    /// Reports a batch `replica` completed to its AIMD limit (a fast
    /// batch lets the limit creep back up, a slow one cuts it) and its
    /// breaker; a success that closes a half-open breaker recovers the
    /// instance in place. No-op on a single server.
    fn record_success(&self, replica: usize, generation: u64, latency: Duration, n: usize) {
        let instance = &self.instances[replica];
        let Some(breaker) = &instance.breaker else {
            return;
        };
        if let Some(aimd) = &instance.aimd {
            aimd.observe(latency);
        }
        self.metrics
            .incr(&format!("instance{replica}_completed"), n as u64);
        let live = instance.live.lock();
        if live.generation == generation {
            breaker.on_success();
        }
    }

    /// Reports a terminal failure on `(replica, generation)`: the AIMD
    /// limit is cut, and the breaker hears it unless the generation is
    /// stale (the instance was already replaced). A trip marks the
    /// instance unhealthy, collapses its AIMD limit to the floor, and
    /// asks the supervisor for a replacement. No-op on a single server.
    fn record_failure(&self, replica: usize, generation: u64) {
        let instance = &self.instances[replica];
        let Some(breaker) = &instance.breaker else {
            return;
        };
        if let Some(aimd) = &instance.aimd {
            aimd.on_congestion();
        }
        let live = instance.live.lock();
        if live.generation != generation {
            return;
        }
        if breaker.on_failure() {
            self.metrics.incr("instance_failed_over", 1);
            if let Some(aimd) = &instance.aimd {
                aimd.collapse();
            }
            drop(live);
            if let Some(tx) = &self.supervisor {
                let _ = tx.send(SupervisorMsg::Reprovision {
                    replica,
                    generation,
                });
            }
        }
    }
}

/// Adds a request to the forming batch, or answers it with `Timeout` if
/// its deadline already passed while it sat in the queue.
fn admit(request: Request, batch: &mut Vec<Request>, metrics: &MetricsRegistry) {
    if Instant::now() >= request.deadline {
        metrics.incr("requests_timed_out", 1);
        resolve(request, Err(ServeError::Timeout), metrics);
    } else {
        batch.push(request);
    }
}

/// Resolves every request the admission queue shed since the last
/// pop: shed counters tick (aggregate and per class), the brownout
/// controller hears about the overload, and the caller gets the typed
/// rejection with its retry hint.
fn drain_sheds(sheds: &mut Vec<Shed<Request>>, core: &Core) {
    for shed in sheds.drain(..) {
        count_shed(&core.metrics, shed.class);
        if let Some(brownout) = &core.config.brownout {
            brownout.on_shed();
        }
        resolve(
            shed.item,
            Err(ServeError::Overloaded(ShedReason::CoDelShed {
                retry_after: shed.retry_after,
            })),
            &core.metrics,
        );
    }
}

/// Exports the brownout mode as the `brownout_active` gauge.
fn poll_brownout(core: &Core) {
    if let Some(brownout) = &core.config.brownout {
        let active = brownout.poll();
        core.metrics
            .set_gauge("brownout_active", if active { 1.0 } else { 0.0 });
    }
}

/// The batcher thread: coalesces queued requests into batches and
/// dispatches each one; batches handed back by a failing fleet
/// instance go out again before new work.
fn batcher_loop(core: Arc<Core>, handback: Receiver<Dispatch>) {
    let config = &core.config;
    let metrics = &core.metrics;
    let mut sheds = Vec::new();
    'serve: loop {
        while let Ok(batch) = handback.try_recv() {
            core.dispatch(batch);
        }
        // Block for the first request of the next batch; a closed and
        // drained queue means the server is shutting down.
        let first = loop {
            let outcome = core.admission.pop(Duration::from_millis(20), &mut sheds);
            drain_sheds(&mut sheds, &core);
            match outcome {
                PopOutcome::Popped { item, sojourn } => {
                    metrics.observe_duration("queue_sojourn_us", sojourn);
                    break item;
                }
                PopOutcome::TimedOut => {
                    poll_brownout(&core);
                    if !handback.is_empty() {
                        continue 'serve;
                    }
                }
                PopOutcome::Closed => break 'serve,
            }
        };
        let window_closes = Instant::now() + config.batch_window;
        let mut batch = Vec::with_capacity(config.max_batch);
        admit(first, &mut batch, metrics);

        // Keep coalescing until the batch fills or the window closes.
        while batch.len() < config.max_batch.max(1) {
            let now = Instant::now();
            if now >= window_closes {
                break;
            }
            let outcome = core.admission.pop(window_closes - now, &mut sheds);
            drain_sheds(&mut sheds, &core);
            match outcome {
                PopOutcome::Popped { item, sojourn } => {
                    metrics.observe_duration("queue_sojourn_us", sojourn);
                    admit(item, &mut batch, metrics);
                }
                PopOutcome::TimedOut | PopOutcome::Closed => break,
            }
        }
        poll_brownout(&core);
        if batch.is_empty() {
            continue;
        }
        core.outstanding.fetch_add(1, Ordering::SeqCst);
        core.dispatch(Dispatch {
            requests: batch,
            dispatches: 0,
            failed: None,
            probe: false,
            sent: Instant::now(),
        });
    }
    // The queue is closed and drained, but a batch still in flight may
    // yet be handed back for re-dispatch.
    while core.outstanding.load(Ordering::SeqCst) > 0 {
        if let Ok(batch) = handback.recv_timeout(Duration::from_millis(1)) {
            core.dispatch(batch);
        }
    }
}

/// One lane's worker thread: executes batches on its backend (retrying
/// transient failures while some request still has deadline left),
/// answers every request in the batch — or hands a fleet batch back
/// for another instance — and maintains the lane's health record.
struct Worker {
    core: Arc<Core>,
    replica: usize,
    generation: u64,
    site: String,
    inflight: Arc<AtomicUsize>,
    health: Arc<Mutex<LaneState>>,
}

impl Worker {
    fn run(self, backend: Box<dyn ExecutionBackend>, rx: Receiver<Dispatch>) {
        self.serve(&*backend, &rx);
        // The lane is closed, or dead after its backend panicked: answer
        // whatever is still sent to it until it closes, so a shutdown
        // never waits on a batch nobody will run.
        for batch in rx.iter() {
            let _retired = self.retire(&batch);
            self.core
                .drop_on_dead_lane(batch, self.replica, self.generation);
        }
    }

    /// Retires `batch` from this lane's in-flight load and from
    /// [`Core::outstanding`] when the returned guard drops.
    fn retire(&self, batch: &Dispatch) -> Retire<'_> {
        Retire {
            outstanding: &self.core.outstanding,
            inflight: &self.inflight,
            n: batch.requests.len(),
        }
    }

    fn serve(&self, backend: &dyn ExecutionBackend, rx: &Receiver<Dispatch>) {
        let core = &self.core;
        let config = &core.config;
        let metrics = &core.metrics;
        while let Ok(mut batch) = rx.recv() {
            // Dropped when this iteration ends, on a panic too.
            let _retired = self.retire(&batch);
            // Deadline escalation: requests that expired while waiting on
            // this lane's channel time out instead of burning backend time.
            let now = Instant::now();
            for request in batch.requests.extract_if(.., |r| now >= r.deadline) {
                metrics.incr("requests_timed_out", 1);
                resolve(request, Err(ServeError::Timeout), metrics);
            }
            if batch.requests.is_empty() {
                if batch.probe {
                    // A probe must always report, releasing its slot.
                    core.record_failure(self.replica, self.generation);
                }
                continue;
            }

            let tensors: Vec<Tensor> = batch.requests.iter().map(|r| r.tensor.clone()).collect();
            let mut attempt = 0u32;
            let result = loop {
                attempt += 1;
                let res = match config.faults.gate(&self.site) {
                    Err(e) => Err(CondorError::from(e)),
                    Ok(()) => {
                        let run = AssertUnwindSafe(|| backend.infer_batch(&tensors));
                        let Ok(res) = panic::catch_unwind(run) else {
                            // A panic is a bug in the backend, not a
                            // fault: the lane is dead from now on, and
                            // the batcher picks it only when no live
                            // lane is left.
                            self.health.lock().dead = true;
                            core.drop_on_dead_lane(batch, self.replica, self.generation);
                            return;
                        };
                        res
                    }
                };
                match res {
                    Ok(outputs) => break Ok(outputs),
                    Err(e) => {
                        // Retry only transient failures, only while attempts
                        // remain, and only if someone is still waiting.
                        let worth_retrying = e.transient
                            && attempt < config.backend_attempts.max(1)
                            && batch.requests.iter().any(|r| Instant::now() < r.deadline);
                        if !worth_retrying {
                            break Err(e);
                        }
                        metrics.incr("backend_retries", 1);
                        if !config.backend_backoff.is_zero() {
                            std::thread::sleep(config.backend_backoff);
                        }
                    }
                }
            };

            match result {
                Ok(outputs) => {
                    {
                        let mut lane = self.health.lock();
                        if lane.unhealthy_until.is_some() {
                            metrics.incr("lane_recovered", 1);
                        }
                        lane.consecutive_failures = 0;
                        lane.unhealthy_until = None;
                    }
                    core.record_success(
                        self.replica,
                        self.generation,
                        batch.sent.elapsed(),
                        batch.requests.len(),
                    );
                    let degraded = config
                        .brownout
                        .as_ref()
                        .is_some_and(|brownout| brownout.active());
                    for (request, output) in batch.requests.into_iter().zip(outputs) {
                        metrics.incr("requests_completed", 1);
                        metrics.observe_duration("latency_us", request.enqueued.elapsed());
                        resolve(request, Ok(ServeReply { output, degraded }), metrics);
                    }
                }
                Err(e) => {
                    {
                        let mut lane = self.health.lock();
                        lane.consecutive_failures += 1;
                        if lane.consecutive_failures >= config.failure_threshold.max(1) {
                            if lane.unhealthy_until.is_none() {
                                metrics.incr("lane_marked_unhealthy", 1);
                            }
                            lane.unhealthy_until = Some(Instant::now() + config.quarantine);
                        }
                    }
                    core.record_failure(self.replica, self.generation);
                    if core.instances.len() > 1 && batch.dispatches < core.budget() {
                        // Never block here: the batcher may itself be
                        // blocked sending to this lane. The batch stays
                        // outstanding (counted again before the guard
                        // retires it) until the batcher re-dispatches it.
                        batch.failed = Some((self.replica, e));
                        core.outstanding.fetch_add(1, Ordering::SeqCst);
                        let _ = core.handback.send(batch);
                        core.admission.wake();
                        continue;
                    }
                    for request in batch.requests {
                        metrics.incr("requests_failed", 1);
                        resolve(request, Err(ServeError::Backend(e.clone())), metrics);
                    }
                }
            }
        }
    }
}

/// Counts one dispatched batch off its lane's in-flight load and off
/// [`Core::outstanding`] when dropped.
struct Retire<'a> {
    outstanding: &'a AtomicUsize,
    inflight: &'a AtomicUsize,
    n: usize,
}

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        self.inflight.fetch_sub(self.n, Ordering::SeqCst);
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_queue::{AimdConfig, BreakerConfig};

    #[test]
    fn saturated_instances_are_still_picked_least_loaded_first() {
        let saturated = || {
            Instance::new(
                Some(CircuitBreaker::with_system_clock(BreakerConfig::default())),
                Some(AimdController::with_system_clock(
                    AimdConfig::default().with_initial_limit(1),
                )),
            )
        };
        let (supervisor, _requests) = unbounded();
        let (core, batcher) = Core::start(
            ServeConfig::default(),
            vec![saturated(), saturated(), saturated()],
            0,
            Some(supervisor),
        );
        // One workerless lane per instance, every one over its limit.
        let mut receivers = Vec::new();
        for (replica, load) in [(0, 9), (1, 2), (2, 5)] {
            let (tx, rx) = bounded(1);
            core.instances[replica].live.lock().lanes.push(Lane {
                tx,
                inflight: Arc::new(AtomicUsize::new(load)),
                health: Arc::default(),
            });
            receivers.push(rx);
        }
        // Whatever the round-robin start, the least-loaded one wins.
        for _ in 0..3 {
            assert_eq!(core.pick(None).map(|t| t.replica), Some(1));
        }
        core.admission.close();
        batcher.join().unwrap();
    }
}
