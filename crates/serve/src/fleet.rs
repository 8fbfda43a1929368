//! Fleet-level resilience: N independent F1 deployments behind one
//! server, with per-instance circuit breakers, automatic failover of
//! failed batches, and background re-provisioning of failed instances.
//!
//! The paper deploys one AFI on one F1 instance; a production service
//! runs several, because an instance can be lost whole — a crashed
//! host, a wedged FPGA slot, a revoked spot reservation — taking every
//! lane it hosts with it. A [`Fleet`] is an [`InferenceServer`] whose
//! lanes are grouped into instances: the same admission queue, durable
//! log, batcher and lane workers, with the health model promoted one
//! level. Where the server quarantines a *lane*, the fleet quarantines
//! an *instance* behind a [`CircuitBreaker`], re-dispatches the batches
//! it failed to a healthy peer, and asks its [`InstanceProvisioner`]
//! for a fresh deployment in the background.
//!
//! Lifecycle of a failure:
//!
//! 1. the batcher dispatches a batch to a lane of instance *k* and the
//!    backend fails it terminally (the worker already burned its
//!    in-worker retries);
//! 2. the worker reports the failure to *k*'s breaker — stale reports
//!    against an already-replaced generation are ignored — and when
//!    the breaker trips (consecutive failures or window failure rate),
//!    the instance is marked unhealthy (`instance_failed_over`), its
//!    AIMD limit collapses to the floor, and the supervisor is asked
//!    for a replacement;
//! 3. the worker hands the whole batch back to the batcher, which
//!    re-dispatches it to a peer instance (`requests_migrated`, one per
//!    request) — at most replicas + 1 dispatches per batch; with no
//!    peer it fails. While a breaker is Open its instance is refused
//!    outright, and once every instance is refused a batch is shed as
//!    [`ShedReason::BreakerOpen`](crate::ShedReason::BreakerOpen) instead
//!    of burning its deadline;
//! 4. an Open breaker times out into HalfOpen and the batcher admits a
//!    bounded number of *probe* batches (suppressed by the
//!    `breaker.probe` fault site); enough probe successes close the
//!    breaker in place — otherwise the supervisor thread closes the
//!    dead instance's lanes, waits [`FleetConfig::reprovision_backoff`],
//!    provisions generation *g+1*, resets the breaker and swaps the
//!    replacement's lanes in healthy (`instance_reprovisioned`).
//!
//! Every instance generation gets a unique fault-site prefix,
//! `fleet{replica}g{generation}.`, so a chaos plan can kill exactly
//! one incarnation: a rule at `fleet0g0.serve.` fails instance 0's
//! first generation and leaves its replacement alone.
//!
//! Admission, durability and the ledger are the server's own: one
//! classed queue bounded by [`ServeConfig::queue_capacity`], one
//! durable log ([`FleetConfig::queue`]), and
//! `requests_accepted == requests_completed + requests_failed +
//! requests_timed_out + requests_shed` on the final snapshot.

use crate::dispatch::{Core, Instance};
use crate::{InferenceServer, ServeConfig, ServeError};
use condor::{CondorError, ExecutionBackend, MetricsSnapshot};
use condor_queue::{AimdConfig, AimdController, BreakerConfig, CircuitBreaker, QueueBackend};
use crossbeam_channel::Receiver;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Provisions one instance of the fleet: returns the execution
/// backends (FPGA slots) of a freshly deployed accelerator for
/// `replica`, at re-provisioning round `generation`.
///
/// Implemented by closures, so a test fleet is one line:
///
/// ```ignore
/// let fleet = Fleet::new(
///     |_replica, _generation| Ok(deploy().into_backend_boxes()),
///     FleetConfig::default(),
/// )?;
/// ```
pub trait InstanceProvisioner: Send + Sync {
    /// Deploys (or re-deploys) one instance.
    fn provision(
        &self,
        replica: usize,
        generation: u64,
    ) -> Result<Vec<Box<dyn ExecutionBackend>>, CondorError>;
}

impl<F> InstanceProvisioner for F
where
    F: Fn(usize, u64) -> Result<Vec<Box<dyn ExecutionBackend>>, CondorError> + Send + Sync,
{
    fn provision(
        &self,
        replica: usize,
        generation: u64,
    ) -> Result<Vec<Box<dyn ExecutionBackend>>, CondorError> {
        self(replica, generation)
    }
}

/// Tuning knobs of the fleet supervisor.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Independent instances to provision.
    pub replicas: usize,
    /// Fewest healthy instances required to accept new requests; below
    /// this, `submit` sheds load with [`ShedReason::MinHealthyFloor`].
    ///
    /// [`ShedReason::MinHealthyFloor`]: crate::ShedReason::MinHealthyFloor
    pub min_healthy: usize,
    /// Pause before re-provisioning a failed instance (real AFIs load
    /// in seconds; tests use milliseconds).
    pub reprovision_backoff: Duration,
    /// The fleet's serving configuration: batching, lane health, the
    /// one admission queue's capacity, CoDel and aging. Its `queue` is
    /// replaced by [`FleetConfig::queue`].
    pub serve: ServeConfig,
    /// Which admission queue backs the fleet: in-memory (default) or a
    /// crash-safe disk queue.
    pub queue: QueueBackend,
    /// When set, each instance gets an AIMD limit on its in-flight
    /// images: slow or failed batches shrink it multiplicatively, fast
    /// ones recover it additively, and an instance at its limit is only
    /// a fallback. A tripped breaker collapses its instance's limit to
    /// the floor.
    pub adaptive: Option<AimdConfig>,
    /// Per-instance circuit-breaker tuning (default: trip after one
    /// terminal failure).
    pub breaker: BreakerConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas: 2,
            min_healthy: 1,
            reprovision_backoff: Duration::from_millis(10),
            serve: ServeConfig::default(),
            queue: QueueBackend::InMemory,
            adaptive: None,
            breaker: BreakerConfig::default().with_consecutive_failures(1),
        }
    }
}

impl FleetConfig {
    /// Sets the instance count.
    pub fn with_replicas(mut self, n: usize) -> Self {
        self.replicas = n.max(1);
        self
    }

    /// Sets the healthy-instance floor for admission.
    pub fn with_min_healthy(mut self, n: usize) -> Self {
        self.min_healthy = n;
        self
    }

    /// Sets the pause before re-provisioning a failed instance.
    pub fn with_reprovision_backoff(mut self, d: Duration) -> Self {
        self.reprovision_backoff = d;
        self
    }

    /// Sets the breaker's consecutive-failure trip threshold (≥ 1).
    pub fn with_instance_failure_threshold(mut self, n: usize) -> Self {
        let n = u32::try_from(n.max(1)).unwrap_or(u32::MAX);
        self.breaker = self.breaker.with_consecutive_failures(n);
        self
    }

    /// Sets the fleet's serving configuration.
    pub fn with_serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }

    /// Selects the fleet admission queue (disk = durable admission).
    pub fn with_queue(mut self, queue: QueueBackend) -> Self {
        self.queue = queue;
        self
    }

    /// Enables AIMD adaptive per-instance concurrency.
    pub fn with_adaptive(mut self, config: AimdConfig) -> Self {
        self.adaptive = Some(config);
        self
    }

    /// Sets the per-instance circuit-breaker tuning.
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = config;
        self
    }
}

pub(crate) enum SupervisorMsg {
    /// Replace the named replica if its generation still matches.
    Reprovision {
        replica: usize,
        generation: u64,
    },
    Shutdown,
}

/// An [`InferenceServer`] over N independent accelerator instances; it
/// dereferences to the server for `submit*`, `infer` and `metrics`.
///
/// See the module docs for the failure lifecycle. Metrics beyond the
/// server's own:
///
/// * resilience — `instance_failed_over`, `instance_reprovisioned`,
///   `requests_migrated`, per-replica `breaker{k}_state` gauges;
/// * placement — `instance{k}_completed` per replica, and with
///   [`FleetConfig::adaptive`] the `instance{k}_concurrency_limit` and
///   `concurrency_limit` gauges.
pub struct Fleet {
    server: InferenceServer,
}

impl Fleet {
    /// Provisions `config.replicas` instances and starts serving.
    pub fn new(
        provisioner: impl InstanceProvisioner + 'static,
        config: FleetConfig,
    ) -> Result<Self, ServeError> {
        let backends = (0..config.replicas)
            .map(|replica| provisioner.provision(replica, 0))
            .collect::<Result<Vec<_>, _>>()
            .map_err(ServeError::Backend)?;
        let instances = (0..config.replicas)
            .map(|_| {
                Instance::new(
                    Some(CircuitBreaker::with_system_clock(config.breaker.clone())),
                    config
                        .adaptive
                        .clone()
                        .map(AimdController::with_system_clock),
                )
            })
            .collect();
        let (tx, rx) = crossbeam_channel::unbounded();
        let serve = config.serve.with_queue(config.queue);
        let mut server =
            InferenceServer::start(serve, instances, backends, config.min_healthy, Some(tx))?;
        let core = Arc::clone(&server.core);
        let backoff = config.reprovision_backoff;
        server.supervisor = Some(std::thread::spawn(move || {
            supervisor_loop(core, rx, Box::new(provisioner), backoff)
        }));
        Ok(Fleet { server })
    }

    /// Instances currently healthy and serving.
    pub fn healthy_instances(&self) -> usize {
        self.server.core.healthy_instances()
    }

    /// Stops accepting requests, drains every accepted request, retires
    /// every instance and returns the final metrics.
    pub fn shutdown(self) -> MetricsSnapshot {
        self.server.shutdown()
    }
}

impl std::ops::Deref for Fleet {
    type Target = InferenceServer;

    fn deref(&self) -> &InferenceServer {
        &self.server
    }
}

/// The supervisor thread: retires failed instances and provisions
/// their replacements, resetting the replica's breaker when the
/// replacement swaps in.
fn supervisor_loop(
    core: Arc<Core>,
    rx: Receiver<SupervisorMsg>,
    provisioner: Box<dyn InstanceProvisioner>,
    backoff: Duration,
) {
    while let Ok(SupervisorMsg::Reprovision {
        replica,
        generation,
    }) = rx.recv()
    {
        {
            // Retire the failed generation: closing its lanes lets their
            // workers finish what they hold and exit. A stale message
            // (the slot moved on) is dropped, as is one for an instance
            // a half-open probe already recovered in place.
            let instance = &core.instances[replica];
            let mut live = instance.live.lock();
            if live.generation != generation || instance.healthy() {
                continue;
            }
            live.lanes.clear();
        }
        let next_gen = generation + 1;
        loop {
            if !core.accepting.load(Ordering::SeqCst) {
                return;
            }
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            match provisioner.provision(replica, next_gen) {
                Ok(backends) if !backends.is_empty() => {
                    core.install(replica, next_gen, backends);
                    // The replacement starts with a clean slate: the old
                    // generation's failure history describes hardware
                    // that no longer exists.
                    if let Some(breaker) = &core.instances[replica].breaker {
                        breaker.reset();
                    }
                    core.metrics.incr("instance_reprovisioned", 1);
                    break;
                }
                _ => core.metrics.incr("instance_reprovision_failed", 1),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::{CpuBackend, ShedReason};
    use condor_dataflow::PipelineModel;
    use condor_nn::{dataset, zoo};
    use condor_queue::{DiskQueue, Priority};
    use condor_tensor::Tensor;
    use std::time::Instant;

    fn quick_config() -> FleetConfig {
        FleetConfig::default().with_serve(
            ServeConfig::default()
                .with_batch_window(Duration::from_millis(1))
                .with_default_timeout(Duration::from_secs(20)),
        )
    }

    #[test]
    fn fleet_spreads_requests_and_balances_the_ledger() {
        let net = zoo::tc1_weighted(3);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            quick_config().with_replicas(2),
        )
        .unwrap();
        assert_eq!(fleet.healthy_instances(), 2);
        for s in dataset::usps_like(8, 3) {
            let out = fleet.infer(s.image).unwrap();
            assert_eq!(out.shape().c, 10);
        }
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("requests_accepted"), 8);
        assert_eq!(snap.counter("requests_completed"), 8);
        assert_eq!(snap.counter("instance_failed_over"), 0);
        assert_eq!(snap.counter("requests_migrated"), 0);
        assert_eq!(snap.gauge("breaker0_state"), Some(0.0));
        assert_eq!(snap.gauge("breaker1_state"), Some(0.0));
    }

    #[test]
    fn fleet_batches_coalesce_like_a_single_server() {
        // One admission queue and one batcher: a burst coalesces into
        // batches as large as the window allows, not one per router.
        let net = zoo::tc1_weighted(10);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            FleetConfig::default().with_serve(
                ServeConfig::default()
                    .with_batch_window(Duration::from_millis(50))
                    .with_default_timeout(Duration::from_secs(20)),
            ),
        )
        .unwrap();
        let pending: Vec<_> = dataset::usps_like(12, 10)
            .into_iter()
            .map(|s| fleet.submit(s.image).unwrap())
            .collect();
        for p in pending {
            p.wait().unwrap();
        }
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("requests_completed"), 12);
        assert!(snap.histogram("batch_size").unwrap().max > 4.0);
        assert_eq!(snap.counter("requests_migrated"), 0);
    }

    #[test]
    fn fleet_priority_classes_round_trip() {
        let net = zoo::tc1_weighted(9);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            quick_config(),
        )
        .unwrap();
        let mut samples = dataset::usps_like(2, 9);
        let fast = fleet
            .submit_with_priority(samples.remove(0).image, Priority::Interactive)
            .unwrap();
        let slow = fleet
            .submit_with_priority(samples.remove(0).image, Priority::Batch)
            .unwrap();
        let fast = fast.wait_reply().unwrap();
        let slow = slow.wait_reply().unwrap();
        assert!(!fast.degraded);
        assert!(!slow.degraded);
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("requests_completed"), 2);
        assert_eq!(snap.counter("requests_shed"), 0);
        assert!(snap.histogram("queue_sojourn_us").is_some());
    }

    /// A backend that panics on every batch (a bug, not a fault).
    struct Panics(Box<dyn ExecutionBackend>);

    impl ExecutionBackend for Panics {
        fn infer_batch(&self, _: &[Tensor]) -> Result<Vec<Tensor>, CondorError> {
            panic!("backend bug");
        }
        fn pipeline(&self) -> PipelineModel {
            self.0.pipeline()
        }
        fn location(&self) -> String {
            self.0.location()
        }
    }

    #[test]
    fn a_panicking_instance_is_replaced_and_the_fleet_recovers() {
        let net = zoo::tc1_weighted(12);
        let fleet = Fleet::new(
            move |replica: usize, generation: u64| {
                let lanes = CpuBackend::replicas(&net, 1)?;
                if (replica, generation) != (0, 0) {
                    return Ok(lanes);
                }
                Ok(lanes
                    .into_iter()
                    .map(|b| Box::new(Panics(b)) as Box<dyn ExecutionBackend>)
                    .collect())
            },
            quick_config().with_replicas(2),
        )
        .unwrap();
        // Idle instances tie, so the first two requests go to different
        // instances. The one on instance 0 panics, which trips its
        // breaker before the caller hears `Disconnected`.
        let results: Vec<_> = dataset::usps_like(8, 12)
            .into_iter()
            .map(|s| fleet.infer(s.image))
            .collect();
        let lost = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(lost, 1, "{results:?}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while fleet.healthy_instances() < 2 {
            assert!(Instant::now() < deadline, "instance 0 was never replaced");
            std::thread::sleep(Duration::from_millis(5));
        }
        for s in dataset::usps_like(4, 13) {
            fleet.infer(s.image).unwrap();
        }
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("requests_dropped_worker_died"), 1);
        assert_eq!(snap.counter("instance_failed_over"), 1);
        assert_eq!(snap.counter("instance_reprovisioned"), 1);
    }

    #[test]
    fn min_healthy_floor_sheds_new_load() {
        let net = zoo::tc1_weighted(4);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            quick_config().with_replicas(1).with_min_healthy(2),
        )
        .unwrap();
        // One healthy instance < floor of two: admission sheds.
        let err = fleet.submit(dataset::usps_like(1, 4).remove(0).image);
        assert!(matches!(
            err,
            Err(ServeError::Overloaded(ShedReason::MinHealthyFloor))
        ));
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("requests_accepted"), 0);
        assert!(snap.counter("requests_rejected_overloaded") >= 1);
    }

    #[test]
    fn zero_replicas_is_rejected() {
        let net = zoo::tc1_weighted(5);
        let config = FleetConfig {
            replicas: 0,
            ..quick_config()
        };
        let err = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            config,
        );
        assert!(matches!(err, Err(ServeError::NoBackends)));
    }

    #[test]
    fn provisioner_failure_at_startup_surfaces() {
        let err = Fleet::new(
            |_: usize, _: u64| Err(CondorError::new("deploy", "no capacity")),
            quick_config(),
        );
        assert!(matches!(err, Err(ServeError::Backend(e)) if e.message.contains("no capacity")));
    }

    #[test]
    fn dropping_a_fleet_drains_without_shutdown() {
        let net = zoo::tc1_weighted(6);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            quick_config(),
        )
        .unwrap();
        let pending = fleet
            .submit(dataset::usps_like(1, 6).remove(0).image)
            .unwrap();
        drop(fleet);
        // The dropped fleet still answered the accepted request.
        assert!(pending.wait().is_ok());
    }

    #[test]
    fn breaker_trips_fails_over_and_reprovision_resets_it() {
        use condor_faults::{FaultPlan, FaultRule};
        // Instance 0's first generation fails every dispatch
        // terminally; its replacement (generation 1) is clean.
        let handle = FaultPlan::new(0xB1)
            .rule(
                FaultRule::at("fleet0g0.serve.backend0")
                    .always()
                    .fail_permanent(),
            )
            .install();
        let net = zoo::tc1_weighted(11);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            quick_config().with_replicas(2).with_serve(
                ServeConfig::default()
                    .with_batch_window(Duration::from_millis(1))
                    .with_default_timeout(Duration::from_secs(20))
                    .with_faults(handle.clone()),
            ),
        )
        .unwrap();
        // Every request completes: ones that land on instance 0 fail
        // there, trip its breaker (threshold 1) and migrate.
        for s in dataset::usps_like(8, 11) {
            fleet.infer(s.image).unwrap();
        }
        // Wait for the supervisor to swap in generation 1.
        let deadline = Instant::now() + Duration::from_secs(5);
        while fleet.healthy_instances() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(fleet.healthy_instances(), 2, "replacement never arrived");
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("requests_completed"), 8);
        // The first batch lands on instance 0 (round-robin start), trips
        // its breaker and is re-dispatched once; after that instance 0 is
        // refused until its clean replacement swaps in.
        assert_eq!(snap.counter("instance_failed_over"), 1);
        assert_eq!(snap.counter("requests_migrated"), 1);
        assert!(snap.counter("instance_reprovisioned") >= 1);
        // The reset breaker reads Closed on the final snapshot.
        assert_eq!(snap.gauge("breaker0_state"), Some(0.0));
        handle.clear();
    }

    #[test]
    fn open_breaker_sheds_with_the_typed_reason() {
        use condor_faults::{FaultPlan, FaultRule};
        // A single instance whose only generation fails terminally, a
        // breaker that stays Open for an hour, and a provisioner that
        // cannot build a replacement: after the trip, nothing is
        // routable and requests shed as BreakerOpen.
        let handle = FaultPlan::new(0xB2)
            .rule(
                FaultRule::at("fleet0g0.serve.backend0")
                    .always()
                    .fail_permanent(),
            )
            .install();
        let net = zoo::tc1_weighted(12);
        let fleet = Fleet::new(
            move |_: usize, generation: u64| {
                if generation == 0 {
                    CpuBackend::replicas(&net, 1)
                } else {
                    Err(CondorError::new("deploy", "no capacity"))
                }
            },
            quick_config()
                .with_replicas(1)
                .with_min_healthy(0)
                .with_reprovision_backoff(Duration::from_secs(5))
                .with_breaker(
                    BreakerConfig::default()
                        .with_consecutive_failures(1)
                        .with_open_timeout(Duration::from_secs(3600)),
                )
                .with_serve(
                    ServeConfig::default()
                        .with_batch_window(Duration::from_millis(1))
                        .with_default_timeout(Duration::from_secs(20))
                        .with_faults(handle.clone()),
                ),
        )
        .unwrap();
        let mut samples = dataset::usps_like(2, 12);
        // The first request trips the breaker and fails terminally.
        let first = fleet.submit(samples.remove(0).image).unwrap().wait();
        assert!(matches!(first, Err(ServeError::Backend(_))));
        // The next request finds every path breaker-refused.
        let second = fleet.submit(samples.remove(0).image).unwrap().wait();
        assert!(matches!(
            second,
            Err(ServeError::Overloaded(ShedReason::BreakerOpen))
        ));
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("requests_accepted"), 2);
        assert_eq!(snap.counter("requests_shed"), 1);
        assert_eq!(snap.counter("requests_shed_standard"), 1);
        assert_eq!(snap.counter("instance_failed_over"), 1);
        assert_eq!(
            snap.counter("requests_accepted"),
            snap.counter("requests_completed")
                + snap.counter("requests_failed")
                + snap.counter("requests_timed_out")
                + snap.counter("requests_shed")
        );
        assert_eq!(snap.gauge("breaker0_state"), Some(1.0));
        handle.clear();
    }

    /// Fresh scratch directory for the disk-queue tests.
    fn tmp_queue_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU64;
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "condor-fleet-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_fleet_acks_every_request_and_drains() {
        let dir = tmp_queue_dir("ledger");
        let net = zoo::tc1_weighted(7);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            quick_config()
                .with_replicas(2)
                .with_queue(QueueBackend::Disk(crate::DiskQueueConfig::new(&dir))),
        )
        .unwrap();
        for s in dataset::usps_like(8, 7) {
            let out = fleet.infer(s.image).unwrap();
            assert_eq!(out.shape().c, 10);
        }
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("requests_accepted"), 8);
        assert_eq!(snap.counter("requests_completed"), 8);
        assert_eq!(snap.histogram("ack_latency_us").unwrap().count, 8);
        assert_eq!(snap.gauge("disk_queue_depth"), Some(0.0));
        let (_, report) = DiskQueue::open(crate::DiskQueueConfig::new(&dir)).unwrap();
        assert!(report.pending.is_empty());
        assert_eq!(report.double_acks, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aimd_limit_shrinks_under_slow_backends() {
        use condor_faults::{FaultPlan, FaultRule};
        // Every dispatch to instance 0's first generation is delayed
        // well past the AIMD latency threshold, so each completion is a
        // congestion signal: 8 → 4 → 2 → 1 with a zero cooldown.
        let handle = FaultPlan::new(0xA1)
            .rule(
                FaultRule::at("fleet0g0.serve.backend0")
                    .always()
                    .delay(Duration::from_millis(15)),
            )
            .install();
        let net = zoo::tc1_weighted(8);
        let fleet = Fleet::new(
            move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
            quick_config()
                .with_replicas(1)
                .with_adaptive(
                    AimdConfig::default()
                        .with_initial_limit(8)
                        .with_limits(1, 8)
                        .with_latency_threshold(Duration::from_millis(5))
                        .with_cooldown(Duration::ZERO),
                )
                .with_serve(
                    ServeConfig::default()
                        .with_batch_window(Duration::from_millis(1))
                        .with_default_timeout(Duration::from_secs(20))
                        .with_faults(handle.clone()),
                ),
        )
        .unwrap();
        for s in dataset::usps_like(6, 8) {
            fleet.infer(s.image).unwrap();
        }
        let snap = fleet.shutdown();
        assert_eq!(snap.counter("requests_completed"), 6);
        let limit = snap.gauge("concurrency_limit").unwrap();
        assert!(
            limit < 8.0,
            "AIMD limit must shrink under sustained slow dispatches, still at {limit}"
        );
        assert!(
            limit <= 2.0,
            "three congested dispatches should multiplicatively cut 8 to ≤2, got {limit}"
        );
        assert_eq!(snap.gauge("instance0_concurrency_limit"), Some(limit));
        assert!(handle.fired() >= 6);
        handle.clear();
    }
}
