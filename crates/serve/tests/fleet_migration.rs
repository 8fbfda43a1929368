//! Migration accounting: a request that simply runs out of deadline on
//! a slow but healthy instance is a timeout, not a migration.
//!
//! Two replicas, every backend call delayed 100 ms, `max_batch` 1, and
//! four requests with 30 ms deadlines submitted back to back. Two of
//! them reach a backend and complete late; the other two expire while
//! waiting for a busy lane. No instance ever fails a batch, so nothing
//! is re-dispatched and `requests_migrated` must stay 0, every timeout
//! the callers see must be counted as one, and the ledger must balance.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor_faults::{FaultPlan, FaultRule};
use condor_nn::{dataset, zoo};
use condor_serve::{CpuBackend, Fleet, FleetConfig, ServeConfig, ServeError};
use std::time::Duration;

#[test]
fn timed_out_requests_are_not_counted_as_migrated() {
    let handle = FaultPlan::new(0x316)
        .rule(
            FaultRule::at("fleet")
                .always()
                .delay(Duration::from_millis(100)),
        )
        .install();
    let net = zoo::tc1_weighted(13);
    let fleet = Fleet::new(
        move |_: usize, _: u64| CpuBackend::replicas(&net, 1),
        FleetConfig::default().with_replicas(2).with_serve(
            ServeConfig::default()
                .with_max_batch(1)
                .with_batch_window(Duration::from_millis(1))
                .with_faults(handle.clone()),
        ),
    )
    .unwrap();

    let pending: Vec<_> = dataset::usps_like(4, 13)
        .into_iter()
        .map(|s| {
            fleet
                .submit_with_timeout(s.image, Duration::from_millis(30))
                .unwrap()
        })
        .collect();
    let mut completed = 0u64;
    let mut timed_out = 0u64;
    for p in pending {
        match p.wait_reply_timeout(Duration::from_secs(10)) {
            Ok(_) => completed += 1,
            Err(ServeError::Timeout) => timed_out += 1,
            Err(other) => panic!("unexpected reply {other:?}"),
        }
    }

    let snap = fleet.shutdown();
    handle.clear();
    assert_eq!(
        snap.counter("requests_migrated"),
        0,
        "no instance failed a batch, so nothing may count as migrated"
    );
    assert_eq!(snap.counter("requests_timed_out"), timed_out);
    assert_eq!(snap.counter("requests_completed"), completed);
    assert_eq!(snap.counter("requests_accepted"), 4);
    assert_eq!(
        snap.counter("requests_accepted"),
        snap.counter("requests_completed")
            + snap.counter("requests_failed")
            + snap.counter("requests_timed_out")
            + snap.counter("requests_shed")
    );
}
