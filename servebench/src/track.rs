//! Request tracking around the serving stack, from the benchmark's own
//! side of the public API.
//!
//! Every backend a server dispatches to is wrapped in an
//! [`Instrumented`] backend. The wrapper stamps each request's
//! completion the moment `infer_batch` returns its output, so latency
//! does not depend on when the collector thread gets round to the
//! reply, and the closed loop gets the request's place back at that
//! moment too. Requests are recognised by their input: every pool
//! image is unique, and a pool slot is owned by at most one request while that
//! request is in flight, so content identifies the request.
//!
//! With tracing on, the wrapper also keeps one span per backend call
//! listing the requests it carried. Spans stay in memory until the run
//! ends.

use condor::{CondorError, ExecutionBackend};
use condor_dataflow::PipelineModel;
use condor_tensor::Tensor;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// FNV-1a over the bit patterns of a tensor's values.
pub fn content_hash(t: &Tensor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in t.as_slice() {
        h ^= u64::from(v.to_bits());
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One `infer_batch` call seen by the wrapper.
#[derive(Clone, Debug)]
pub struct BatchSpan {
    pub lane: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Sequence numbers of the requests the batch carried.
    pub seqs: Vec<u64>,
}

/// Shared state between the load generator, the collector and the
/// backend wrappers of one measured window.
pub struct Tracker {
    epoch: Instant,
    slot_of: HashMap<u64, usize>,
    /// Per pool slot: `seq + 1` of the request holding it, 0 when free.
    owner: Vec<AtomicU64>,
    /// Per request: nanoseconds since `epoch` at which its backend call
    /// returned (0 = never reached a backend).
    done_ns: Vec<AtomicU64>,
    /// Per request: start of the backend call that carried it.
    start_ns: Vec<AtomicU64>,
    /// Per request: set once it left the server, by whichever came
    /// first: its backend call returning or its reply reaching the
    /// collector.
    finished: Vec<AtomicBool>,
    /// Requests sent and not yet finished; the closed-loop generator
    /// waits on the condvar.
    in_server: (Mutex<usize>, Condvar),
    /// Inputs no in-flight request owned (must stay 0).
    unmatched: AtomicU64,
    spans: Option<Mutex<Vec<BatchSpan>>>,
}

impl Tracker {
    /// `pool_hashes[i]` is the content hash of pool image `i`; hashes
    /// must be distinct (checked by the caller).
    pub fn new(epoch: Instant, pool_hashes: &[u64], max_requests: usize, trace: bool) -> Self {
        let atomics = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Tracker {
            epoch,
            slot_of: pool_hashes
                .iter()
                .enumerate()
                .map(|(i, &h)| (h, i))
                .collect(),
            owner: atomics(pool_hashes.len()),
            done_ns: atomics(max_requests),
            start_ns: atomics(max_requests),
            finished: (0..max_requests).map(|_| AtomicBool::new(false)).collect(),
            in_server: (Mutex::new(0), Condvar::new()),
            unmatched: AtomicU64::new(0),
            spans: trace.then(|| Mutex::new(Vec::new())),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn max_requests(&self) -> usize {
        self.done_ns.len()
    }

    /// Claims a free pool slot for request `seq`, preferring
    /// `preferred` and scanning forward. Sleeps briefly while the whole
    /// pool is in flight (the delay shows up as generator lateness).
    pub fn acquire(&self, seq: u64, preferred: usize) -> usize {
        let n = self.owner.len();
        loop {
            for k in 0..n {
                let slot = (preferred + k) % n;
                if self.owner[slot]
                    .compare_exchange(0, seq + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    return slot;
                }
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Frees `slot` if request `seq` still holds it (the request ended
    /// without reaching a backend).
    pub fn release(&self, slot: usize, seq: u64) {
        let _ = self.owner[slot].compare_exchange(seq + 1, 0, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// Counts one more request as in the server; called before it is
    /// submitted, so a fast backend cannot finish it first.
    pub fn sent(&self) {
        *self.in_server.0.lock().expect("in-server lock poisoned") += 1;
    }

    /// Marks request `seq` as out of the server. Idempotent: the backend
    /// wrapper and the collector may both report the same request.
    pub fn finish(&self, seq: u64) {
        if !self.finished[seq as usize].swap(true, Ordering::SeqCst) {
            *self.in_server.0.lock().expect("in-server lock poisoned") -= 1;
            self.in_server.1.notify_one();
        }
    }

    /// Blocks while `depth` or more requests are in the server.
    pub fn wait_below(&self, depth: usize) {
        let (lock, cvar) = &self.in_server;
        let mut n = lock.lock().expect("in-server lock poisoned");
        while *n >= depth {
            n = cvar.wait(n).expect("in-server lock poisoned");
        }
    }

    /// Backend completion time of `seq`, if a backend answered it.
    pub fn done_ns(&self, seq: u64) -> Option<u64> {
        match self.done_ns[seq as usize].load(Ordering::SeqCst) {
            0 => None,
            t => Some(t),
        }
    }

    /// Start of the backend call that carried `seq`.
    pub fn batch_start_ns(&self, seq: u64) -> Option<u64> {
        self.done_ns(seq)
            .map(|_| self.start_ns[seq as usize].load(Ordering::SeqCst))
    }

    pub fn unmatched(&self) -> u64 {
        self.unmatched.load(Ordering::SeqCst)
    }

    pub fn take_spans(&self) -> Vec<BatchSpan> {
        match &self.spans {
            Some(m) => std::mem::take(&mut *m.lock().expect("span buffer lock poisoned")),
            None => Vec::new(),
        }
    }

    fn on_batch(&self, lane: usize, start_ns: u64, end_ns: u64, images: &[Tensor]) {
        let done = end_ns.max(1);
        let mut seqs = Vec::with_capacity(if self.spans.is_some() {
            images.len()
        } else {
            0
        });
        for img in images {
            let owner = self
                .slot_of
                .get(&content_hash(img))
                .map_or(0, |&slot| self.owner[slot].swap(0, Ordering::SeqCst));
            if owner == 0 {
                self.unmatched.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            let seq = owner - 1;
            self.start_ns[seq as usize].store(start_ns, Ordering::SeqCst);
            self.done_ns[seq as usize].store(done, Ordering::SeqCst);
            self.finish(seq);
            if self.spans.is_some() {
                seqs.push(seq);
            }
        }
        if let Some(spans) = &self.spans {
            spans
                .lock()
                .expect("span buffer lock poisoned")
                .push(BatchSpan {
                    lane,
                    start_ns,
                    end_ns,
                    seqs,
                });
        }
    }
}

/// An [`ExecutionBackend`] that reports every batch to a [`Tracker`].
pub struct Instrumented {
    inner: Box<dyn ExecutionBackend>,
    lane: usize,
    tracker: Arc<Tracker>,
}

impl Instrumented {
    pub fn wrap(
        inner: Box<dyn ExecutionBackend>,
        lane: usize,
        tracker: &Arc<Tracker>,
    ) -> Box<dyn ExecutionBackend> {
        Box::new(Instrumented {
            inner,
            lane,
            tracker: Arc::clone(tracker),
        })
    }
}

impl ExecutionBackend for Instrumented {
    fn infer_batch(&self, images: &[Tensor]) -> Result<Vec<Tensor>, CondorError> {
        let start = self.tracker.now_ns();
        let out = self.inner.infer_batch(images)?;
        let end = self.tracker.now_ns();
        self.tracker.on_batch(self.lane, start, end, images);
        Ok(out)
    }

    fn pipeline(&self) -> PipelineModel {
        self.inner.pipeline()
    }

    fn location(&self) -> String {
        self.inner.location()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_request_leaves_the_server_once() {
        let t = Tracker::new(Instant::now(), &[1, 2], 4, false);
        t.sent();
        t.sent();
        t.finish(0);
        // The collector reporting a request the backend already
        // finished does not free a second place.
        t.finish(0);
        assert_eq!(*t.in_server.0.lock().unwrap(), 1);
        t.wait_below(2);
        t.finish(1);
        t.wait_below(1);
        assert_eq!(*t.in_server.0.lock().unwrap(), 0);
    }
}
