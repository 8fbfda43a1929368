//! Serving benchmark for the condor workspace.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path servebench/Cargo.toml -- \
//!     --workload lenet-trickle --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Builds a Caffe model through `condor` (frontend, check, DSE, HLS,
//! cloud deploy), starts `condor-serve` on it and drives one of two
//! traffic mixes (see `METRICS.md`). With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it serves one untraced and one
//! traced window plus a short overload mix on CPU brownout lanes, and
//! prints the per-layer metrics, writing the spans to
//! `servebench/out/`. Every reply is checked; the process exits 1
//! when a check fails and 2 on bad arguments or a set-up error. The
//! last line of standard output is one JSON object.

mod probe;
mod stats;
mod track;
mod workload;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stats::{median, poisson_schedule, quantile, self_time, sub_window, tail_supported};
use track::{BatchSpan, Tracker};
use workload::{
    Checks, Model, Outcome, Phases, Pool, Reference, Traffic, Window, Workload, LANES, NAMES,
};

/// The measured window is cut into this many equal sub-windows. Latency
/// percentiles and rates are the median of their per-sub-window values,
/// so a stall of the host that hits one sub-window does not move the
/// run's figure.
const SUBWINDOWS: usize = 5;
/// Room the closed loop has for requests, per second of traffic. The
/// run fails if the loop uses it all before its window closes.
const CLOSED_LOOP_CAP_RPS: usize = 10_000;
/// Measured window of the overload mix served by the traced run, after
/// the mix's own warm-up.
const OVERLOAD_WINDOW: Duration = Duration::from_secs(8);

/// Set-ups per run, `setup_s` being their median: at least
/// `MIN_SETUPS`, and more (up to `MAX_SETUPS`) while their total stays
/// under `SETUP_BUDGET`, so cheap set-ups are sampled across a second
/// of host time rather than one moment of it.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 101;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 20, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let code = match parse_args().and_then(run) {
        Ok(correct) => i32::from(!correct),
        Err(e) => {
            eprintln!("servebench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// A metric as printed: name, value, unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median and `q`-quantile of a sample; the run fails when fewer than
/// ten samples lie beyond the quantile.
fn median_and_tail(what: &str, v: Vec<f64>, q: f64, checks: &mut Checks) -> (f64, f64) {
    let n = v.len();
    checks.expect(tail_supported(n, q), || {
        format!(
            "{what}: {n} samples leave fewer than ten beyond p{}",
            q * 100.0
        )
    });
    let v = sorted(v);
    (
        quantile(&v, 0.5).unwrap_or(0.0),
        quantile(&v, q).unwrap_or(0.0),
    )
}

/// End-to-end figures of one measured window.
struct EndToEnd {
    attempted: usize,
    answered: usize,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    urgent_n: usize,
    urgent_p90_ms: f64,
    throughput_rps: f64,
    goodput_rps: f64,
    answered_frac: f64,
    lateness_p99_ms: f64,
}

fn end_to_end(w: &Workload, win: &Window, checks: &mut Checks) -> EndToEnd {
    let (lo, hi) = win.window;
    let sub_seconds = (hi - lo) as f64 / 1e9 / SUBWINDOWS as f64;
    let measured: Vec<_> = win.records.iter().filter(|r| r.measured).collect();
    // (sub-window, class, latency in ms) of every answered request.
    let answered: Vec<(usize, usize, f64)> = measured
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Answered { .. }))
        .filter_map(|r| {
            r.done_ns.map(|d| {
                (
                    sub_window(r.due_ns, (lo, hi), SUBWINDOWS),
                    r.class,
                    ms(d.saturating_sub(r.due_ns)),
                )
            })
        })
        .collect();
    let (mut p50s, mut p90s, mut rates, mut good_rates) = (vec![], vec![], vec![], vec![]);
    for k in 0..SUBWINDOWS {
        let here: Vec<_> = answered.iter().filter(|a| a.0 == k).collect();
        let good = here
            .iter()
            .filter(|a| a.2 <= w.classes[a.1].limit.as_secs_f64() * 1e3)
            .count();
        let lat = here.iter().map(|a| a.2).collect();
        let (p50, p90) = median_and_tail(&format!("latency in sub-window {k}"), lat, 0.90, checks);
        p50s.push(p50);
        p90s.push(p90);
        rates.push(here.len() as f64 / sub_seconds);
        good_rates.push(good as f64 / sub_seconds);
    }
    // The tail is printed but not gated (see METRICS.md). The p99 is
    // taken over the whole window, where five times as many samples lie
    // beyond it as in one sub-window.
    let all = answered.iter().map(|a| a.2).collect();
    let (_, p99_ms) = median_and_tail("latency", all, 0.99, checks);
    let urgent: Vec<f64> = answered.iter().filter(|a| a.1 == 0).map(|a| a.2).collect();
    let urgent_n = urgent.len();
    let (_, urgent_p90_ms) = median_and_tail("most urgent class", urgent, 0.90, checks);
    let lateness = sorted(
        measured
            .iter()
            .map(|r| ms(r.sent_ns.saturating_sub(r.due_ns)))
            .collect(),
    );
    EndToEnd {
        attempted: measured.len(),
        answered: answered.len(),
        p50_ms: median(&p50s),
        p90_ms: median(&p90s),
        p99_ms,
        urgent_n,
        urgent_p90_ms,
        throughput_rps: median(&rates),
        goodput_rps: median(&good_rates),
        answered_frac: answered.len() as f64 / measured.len().max(1) as f64,
        lateness_p99_ms: quantile(&lateness, 0.99).unwrap_or(0.0),
    }
}

/// A served window with the tracker it ran under.
struct Served {
    win: Window,
    tracker: Arc<Tracker>,
    e2e: EndToEnd,
}

fn run(args: Args) -> Result<bool, String> {
    let w = Workload::by_name(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected one of {NAMES:?}",
            args.workload
        )
    })?;
    let seconds = Duration::from_secs(args.seconds);
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "servebench: workload={} seed={} seconds={} trace={} | machine: nproc={cpus} arch={} os={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::consts::ARCH,
        std::env::consts::OS,
    );
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {out_dir:?}: {e}"))?;
    let tag = format!("{}-seed{}-{}", w.name, args.seed, std::process::id());

    let model = Model::new(w.net)?;
    let pool = Pool::new(model.net.input_shape, args.seed)?;
    let max_requests = request_cap(&w, args.seed, w.warmup + seconds);

    // Set up several times; serve on the last set-up (untraced), or on
    // the last two (untraced, then traced, each for half the seconds).
    let serving: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let window = seconds / serving.len() as u32;
    let mut checks = Checks::default();
    let mut phases: Vec<Phases> = Vec::new();
    let mut served: Vec<Served> = Vec::new();
    let mut probes = None;
    let mut spent = Duration::ZERO;
    let mut setup_only = 0;
    while setup_only + serving.len() < MIN_SETUPS
        || (setup_only + serving.len() < MAX_SETUPS && spent < SETUP_BUDGET)
    {
        let tracker = Arc::new(Tracker::new(Instant::now(), &pool.hashes, 0, false));
        let dep = workload::setup(&w, &model, &pool, &tracker)?;
        spent += dep.phases.total();
        phases.push(dep.phases);
        dep.server.shutdown();
        setup_only += 1;
    }
    for &traced in serving {
        let tracker = Arc::new(Tracker::new(
            Instant::now(),
            &pool.hashes,
            max_requests,
            traced,
        ));
        let dep = workload::setup(&w, &model, &pool, &tracker)?;
        phases.push(dep.phases);
        // Replies are checked against the deployment's own outputs.
        let replica = dep
            .replica
            .clone()
            .ok_or("workload serves no accelerator")?;
        let reference = Reference::from_replica(&replica, &pool)?;
        if traced {
            probes = Some(layer_probes(&model, &pool, &replica, &out_dir, &tag)?);
        }
        let mut win = workload::serve(&w, dep, &pool, &reference, &tracker, args.seed, window);
        checks.failures.append(&mut win.checks.failures);
        // Traced runs report no end-to-end metric, so the sample-size
        // rule for those does not apply to them.
        let mut e2e_checks = Checks::default();
        let e2e = end_to_end(&w, &win, &mut e2e_checks);
        if !args.trace {
            checks.failures.append(&mut e2e_checks.failures);
        }
        served.push(Served { win, tracker, e2e });
    }
    let overload = if args.trace {
        let mut o = overload_probe(args.seed)?;
        checks.failures.append(&mut o.win.checks.failures);
        Some(o)
    } else {
        None
    };
    let setup_s = median(
        &phases
            .iter()
            .map(|p| p.total().as_secs_f64())
            .collect::<Vec<_>>(),
    );

    let last = served.last().ok_or("no window was served")?;
    let e = &last.e2e;
    println!(
        "samples: {} attempted, {} answered in the {:.1} s window ({SUBWINDOWS} sub-windows); \
         {} set-ups\nnot gated: latency_p90_ms {:.4} ms (median over sub-windows), latency_p99_ms \
         {:.4} ms (whole window)",
        e.attempted,
        e.answered,
        window.as_secs_f64(),
        phases.len(),
        e.p90_ms,
        e.p99_ms
    );
    println!(
        "ledger (whole run incl. warm-up): {:?}; generator lateness p99 {:.4} ms",
        last.win.ledger, e.lateness_p99_ms
    );
    let metrics = if let Some(o) = &overload {
        println!(
            "overload mix: {} attempted, {} answered in the {:.1} s window; interactive {} \
             answered; ledger {:?}",
            o.e2e.attempted,
            o.e2e.answered,
            OVERLOAD_WINDOW.as_secs_f64(),
            o.e2e.urgent_n,
            o.win.ledger
        );
        if o.win.mismatches.mislabeled > 0 {
            println!(
                "finding: {} overload replies carry a `degraded` flag naming the other engine",
                o.win.mismatches.mislabeled
            );
        }
        per_layer(
            &w,
            &phases,
            (&served[0], last),
            o,
            probes.as_ref(),
            &out_dir.join(format!("{tag}.spans.jsonl")),
        )?
    } else {
        vec![
            metric("latency_p50_ms", e.p50_ms, "ms"),
            metric("throughput_rps", e.throughput_rps, "1/s"),
            metric("goodput_rps", e.goodput_rps, "1/s"),
            metric("answered_frac", e.answered_frac, "fraction"),
            metric("rss_peak_mb", peak_rss_mb(), "MB"),
            metric("setup_s", setup_s, "s"),
        ]
    };
    for m in &metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &checks.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = checks.failures.is_empty();
    let failed = last
        .win
        .records
        .iter()
        .filter(|r| r.measured && r.outcome == Outcome::Failed)
        .count();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        e.attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

/// Requests a window spanning `span` may send: the schedule's length
/// for open loops, a fixed rate cap for closed ones.
fn request_cap(w: &Workload, seed: u64, span: Duration) -> usize {
    match w.traffic {
        Traffic::Open(rate) => poisson_schedule(seed, rate, span).len(),
        Traffic::Closed(_) => CLOSED_LOOP_CAP_RPS * span.as_secs().max(1) as usize,
    }
}

/// Serves the overload mix: the convnet on two CPU lanes that brown out
/// to INT8, CoDel on, Poisson 4000 rps in three classes. Its replies
/// are checked against `FastEngine` and `QuantizedEngine` outputs
/// computed first.
fn overload_probe(seed: u64) -> Result<Served, String> {
    let w = Workload::overload();
    let model = Model::new(w.net)?;
    let pool = Pool::new(model.net.input_shape, seed)?;
    let reference = Reference::from_engines(&model.net, &pool)?;
    let cap = request_cap(&w, seed, w.warmup + OVERLOAD_WINDOW);
    let tracker = Arc::new(Tracker::new(Instant::now(), &pool.hashes, cap, false));
    let dep = workload::setup(&w, &model, &pool, &tracker)?;
    let win = workload::serve(&w, dep, &pool, &reference, &tracker, seed, OVERLOAD_WINDOW);
    let e2e = end_to_end(&w, &win, &mut Checks::default());
    Ok(Served { win, tracker, e2e })
}

/// Results of the direct layer probes.
struct Probes {
    conv2d_us: f64,
    qconv2d_us: f64,
    fast_ms: f64,
    int8_ms: f64,
    append_us: f64,
    ack_us: f64,
    dataflow_b1_ms: f64,
    dataflow_b16_ms: f64,
    sim_cycles_b1: f64,
    sim_cycles_b16: f64,
    sim_us_b16: f64,
    gflop_per_image: f64,
}

fn layer_probes(
    model: &Model,
    pool: &Pool,
    replica: &condor::AcceleratorReplica,
    out_dir: &Path,
    tag: &str,
) -> Result<Probes, String> {
    let (conv2d_us, qconv2d_us) = probe::conv_kernels_us(&model.net, &pool.images[0])?;
    let (fast_ms, int8_ms) = probe::engines_ms(&model.net, &pool.images[..32], pool.calib())?;
    // The durable queue stores the 32-byte request header plus the f32
    // image.
    let payload = 32 + 4 * model.net.input_shape.len();
    let (append_us, ack_us) =
        probe::disk_queue_us(&out_dir.join(format!("{tag}-probe-queue")), payload, 200)?;
    let (dataflow_b1_ms, dataflow_b16_ms) = probe::dataflow_ms(replica, &pool.images)?;
    let acc = replica.accelerator();
    let b16 = acc.timing(16);
    let (sim_cycles_b1, sim_cycles_b16) = (
        acc.timing(1).mean_cycles_per_image,
        b16.mean_cycles_per_image,
    );
    Ok(Probes {
        conv2d_us,
        qconv2d_us,
        fast_ms,
        int8_ms,
        append_us,
        ack_us,
        dataflow_b1_ms,
        dataflow_b16_ms,
        sim_cycles_b1,
        sim_cycles_b16,
        sim_us_b16: b16.mean_us_per_image,
        gflop_per_image: model.net.total_flops().map_err(|e| e.to_string())? as f64 / 1e9,
    })
}

fn class_name(w: &Workload, class: usize) -> &'static str {
    match w.classes[class].priority {
        condor_queue::Priority::Interactive => "interactive",
        condor_queue::Priority::Standard => "standard",
        condor_queue::Priority::Batch => "batch",
    }
}

/// Per-layer metrics from the (untraced, traced) windows, the overload
/// mix, the probes and the set-up phases; writes every span as JSONL.
fn per_layer(
    w: &Workload,
    phases: &[Phases],
    (untraced, traced): (&Served, &Served),
    overload: &Served,
    probes: Option<&Probes>,
    spans_path: &Path,
) -> Result<Vec<Metric>, String> {
    let p = probes.ok_or("traced run without probes")?;
    let phase = |f: fn(&Phases) -> Duration| {
        1e3 * median(
            &phases
                .iter()
                .map(|p| f(p).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let win = &traced.win;
    let (lo, hi) = win.window;
    let seconds = (hi - lo) as f64 / 1e9;
    let measured: Vec<_> = win.records.iter().filter(|r| r.measured).collect();
    let mut scratch = Checks::default();
    let submit_us: Vec<f64> = measured
        .iter()
        .map(|r| (r.submitted_ns - r.sent_ns) as f64 / 1e3)
        .collect();
    let (submit_p50, submit_p99) = median_and_tail("submit", submit_us, 0.99, &mut scratch);
    let wait_ms: Vec<f64> = measured
        .iter()
        .filter_map(|r| {
            r.batch_start_ns
                .map(|b| ms(b.saturating_sub(r.submitted_ns)))
        })
        .collect();
    let (wait_p50, wait_p99) = median_and_tail("wait", wait_ms, 0.99, &mut scratch);
    // Little's law: requests in the server on average over the window.
    let in_server_s: f64 = measured
        .iter()
        .filter_map(|r| r.done_ns.map(|d| d.saturating_sub(r.sent_ns) as f64 / 1e9))
        .sum();
    // Outcome counts and brownout figures come from the overload mix.
    let ov = &overload.win;
    let ov_measured: Vec<_> = ov.records.iter().filter(|r| r.measured).collect();
    let count = |o: Outcome| ov_measured.iter().filter(|r| r.outcome == o).count() as f64;

    let spans = traced.tracker.take_spans();
    let in_window: Vec<&BatchSpan> = spans
        .iter()
        .filter(|s| (lo..hi).contains(&s.start_ns))
        .collect();
    let calls = sorted(
        in_window
            .iter()
            .map(|s| ms(s.end_ns - s.start_ns))
            .collect(),
    );
    let busy_ms: f64 = calls.iter().sum();
    let images: usize = in_window.iter().map(|s| s.seqs.len()).sum();
    let mut per_lane = [0usize; LANES];
    for s in &in_window {
        per_lane[s.lane] += 1;
    }
    let share_max = per_lane.iter().copied().max().unwrap_or(0) as f64 / calls.len().max(1) as f64;

    write_spans(w, phases, win, &spans, spans_path)?;
    println!(
        "spans: {} batch spans, {} request spans -> {}",
        spans.len(),
        win.records.len(),
        spans_path.display()
    );
    println!(
        "dataflow at batch 16: measured {:.4} ms/image on the host runtime; simulated {:.0} \
         cycles/image = {:.4} ms at the plan clock",
        p.dataflow_b16_ms,
        p.sim_cycles_b16,
        p.sim_us_b16 / 1e3
    );

    let overhead = |a: f64, b: f64| if a > 0.0 { 100.0 * (b - a) / a } else { 0.0 };
    Ok(vec![
        metric("setup.frontend_ms", phase(|p| p.frontend), "ms"),
        metric("setup.build_ms", phase(|p| p.build), "ms"),
        metric("setup.deploy_ms", phase(|p| p.deploy), "ms"),
        metric("setup.serve_start_ms", phase(|p| p.serve_start), "ms"),
        metric("request.latency_p99_ms", traced.e2e.p99_ms, "ms"),
        metric("serve.submit_us.p50", submit_p50, "us"),
        metric("serve.submit_us.p99", submit_p99, "us"),
        metric("serve.wait_ms.p50", wait_p50, "ms"),
        metric("serve.wait_ms.p99", wait_p99, "ms"),
        metric(
            "serve.batch_size.mean",
            images as f64 / calls.len().max(1) as f64,
            "images",
        ),
        metric("serve.in_server.mean", in_server_s / seconds, "requests"),
        metric("serve.lane_share_max", share_max, "fraction"),
        metric("serve.rejected_full", count(Outcome::Refused), "count"),
        metric("serve.shed_codel", count(Outcome::Shed), "count"),
        metric("serve.timed_out", count(Outcome::TimedOut), "count"),
        metric("brownout.engages", ov.brownout_engages as f64, "count"),
        metric(
            "brownout.degraded_frac",
            count(Outcome::Answered { int8: true }) / overload.e2e.answered.max(1) as f64,
            "fraction",
        ),
        metric(
            "brownout.mislabeled",
            ov.mismatches.mislabeled as f64,
            "count",
        ),
        metric("overload.goodput_rps", overload.e2e.goodput_rps, "1/s"),
        metric(
            "overload.interactive_p90_ms",
            overload.e2e.urgent_p90_ms,
            "ms",
        ),
        metric(
            "backend.call_ms.p50",
            quantile(&calls, 0.5).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "backend.call_ms.p99",
            quantile(&calls, 0.99).unwrap_or(0.0),
            "ms",
        ),
        metric("backend.ms_per_image", busy_ms / images.max(1) as f64, "ms"),
        metric(
            "backend.busy_frac",
            busy_ms / (1e3 * seconds * LANES as f64),
            "fraction",
        ),
        metric("dataflow.batch1_ms", p.dataflow_b1_ms, "ms"),
        metric("dataflow.per_image_ms_b16", p.dataflow_b16_ms, "ms"),
        metric(
            "dataflow.sim_cycles_per_image_b1",
            p.sim_cycles_b1,
            "cycles",
        ),
        metric(
            "dataflow.sim_cycles_per_image_b16",
            p.sim_cycles_b16,
            "cycles",
        ),
        metric(
            "kernels.gflops",
            p.gflop_per_image * images as f64 / (busy_ms / 1e3),
            "GFLOP/s",
        ),
        metric("kernels.conv2d_us", p.conv2d_us, "us"),
        metric("kernels.qconv2d_us", p.qconv2d_us, "us"),
        metric("nn.fast_ms_per_image", p.fast_ms, "ms"),
        metric("nn.int8_ms_per_image", p.int8_ms, "ms"),
        metric("queue.append_us", p.append_us, "us"),
        metric("queue.ack_us", p.ack_us, "us"),
        metric("gen.lateness_p99_ms", traced.e2e.lateness_p99_ms, "ms"),
        metric(
            "trace.overhead_p50_pct",
            overhead(untraced.e2e.p50_ms, traced.e2e.p50_ms),
            "%",
        ),
        metric(
            "trace.overhead_rps_pct",
            overhead(traced.e2e.throughput_rps, untraced.e2e.throughput_rps),
            "%",
        ),
    ])
}

/// Writes the traced window as JSONL: set-up phases, one `request` span
/// per request (with its self time), one `submit` span per request and
/// one `backend.infer_batch` span per backend call. Times are
/// microseconds since the window's epoch.
fn write_spans(
    w: &Workload,
    phases: &[Phases],
    win: &Window,
    spans: &[BatchSpan],
    path: &Path,
) -> Result<(), String> {
    let us = |ns: u64| ns as f64 / 1e3;
    let mut carried_by = vec![usize::MAX; win.records.len()];
    for (i, s) in spans.iter().enumerate() {
        for &seq in &s.seqs {
            if let Some(slot) = carried_by.get_mut(seq as usize) {
                *slot = i;
            }
        }
    }
    let mut out = String::new();
    for (rep, p) in phases.iter().enumerate() {
        for (name, d) in [
            ("setup.frontend", p.frontend),
            ("setup.build", p.build),
            ("setup.deploy", p.deploy),
            ("setup.serve_start", p.serve_start),
        ] {
            let _ = writeln!(
                out,
                "{{\"name\": \"{name}\", \"rep\": {rep}, \"dur_us\": {}}}",
                d.as_secs_f64() * 1e6
            );
        }
    }
    for r in &win.records {
        let batch = carried_by.get(r.seq as usize).and_then(|&i| spans.get(i));
        let end = r.done_ns.unwrap_or(r.submitted_ns);
        let mut children = vec![(r.sent_ns, r.submitted_ns)];
        children.extend(batch.map(|b| (b.start_ns, b.end_ns)));
        let outcome = match r.outcome {
            Outcome::Answered { int8: false } => "answered",
            Outcome::Answered { int8: true } => "degraded",
            Outcome::Refused => "refused",
            Outcome::Shed => "shed",
            Outcome::TimedOut => "timed_out",
            Outcome::Failed => "failed",
        };
        let _ = writeln!(
            out,
            "{{\"name\": \"request\", \"id\": {seq}, \"class\": \"{}\", \"outcome\": \"{outcome}\", \
             \"measured\": {}, \"start_us\": {}, \"end_us\": {}, \"self_us\": {}, \"batch\": {}}}",
            class_name(w, r.class),
            r.measured,
            us(r.due_ns),
            us(end),
            us(self_time((r.due_ns, end), &children)),
            batch.map_or(-1, |_| carried_by[r.seq as usize] as i64),
            seq = r.seq,
        );
        let _ = writeln!(
            out,
            "{{\"name\": \"submit\", \"parent\": {}, \"start_us\": {}, \"end_us\": {}}}",
            r.seq,
            us(r.sent_ns),
            us(r.submitted_ns)
        );
    }
    for (i, s) in spans.iter().enumerate() {
        let seqs: Vec<String> = s.seqs.iter().map(u64::to_string).collect();
        let _ = writeln!(
            out,
            "{{\"name\": \"backend.infer_batch\", \"id\": {i}, \"lane\": {}, \"start_us\": {}, \
             \"end_us\": {}, \"requests\": [{}]}}",
            s.lane,
            us(s.start_ns),
            us(s.end_ns),
            seqs.join(",")
        );
    }
    let mut f = std::fs::File::create(path).map_err(|e| format!("{path:?}: {e}"))?;
    f.write_all(out.as_bytes())
        .and_then(|()| f.flush())
        .map_err(|e| format!("{path:?}: {e}"))?;
    Ok(())
}
