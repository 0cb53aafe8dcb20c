//! `servebench` — drives the real `MultiServeRuntime` open-loop with one
//! seeded workload and prints every end-to-end metric (or, with
//! `--trace 1`, every per-layer metric) by name and unit.
//!
//! ```text
//! servebench --workload colo_steady --seed 1 --seconds 10 --trace 0 [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The run also writes its
//! full result (header, end-to-end and per-layer metrics, counter deltas)
//! to `DIR/<workload>-seed<seed>-trace<0|1>.json`, and a traced run writes
//! its span dump to `DIR/spans-<workload>-seed<seed>.jsonl`. The exit code
//! is 1 when an output check failed and 2 when the run could not complete.

mod drive;
mod replay;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use drec_sched::{DecisionSnapshot, MultiServeRuntime};
use drec_serve::{QueueKind, StoreStats};
use servebench::header::{self, Header};
use servebench::json::{quote, ObjWriter};
use servebench::stats::{self, median, percentile_with_misses, MISS_LATENCY_MS};
use servebench::workload::{Arrival, Workload};

use drive::{Check, DriveSpec, MonitorReport, Outcome, References, Sent, UpdateRun, Window};

/// Runtime starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Warm-up traffic before each window, seconds: fills the caches and the
/// tier and lets the tuner settle.
const WARMUP_S: f64 = 1.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut out = PathBuf::from("servebench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
    })
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runtime counters at one instant, for deltas over a window.
struct Counters {
    completed: u64,
    batches: u64,
    worker_busy_s: Vec<f64>,
    decisions: Vec<DecisionSnapshot>,
    store: StoreStats,
}

fn counters(runtime: &MultiServeRuntime) -> Counters {
    let snap = runtime.snapshot();
    Counters {
        completed: snap.completed,
        batches: snap.batches,
        worker_busy_s: snap
            .worker_utilization
            .iter()
            .map(|u| u * snap.uptime_seconds)
            .collect(),
        decisions: runtime.decisions(),
        store: runtime
            .store()
            .map(|s| s.stats())
            .expect("the benchmark always configures a store"),
    }
}

/// One measured window and everything observed around it.
struct Measured {
    window: Window,
    monitor: MonitorReport,
    updates: Vec<UpdateRun>,
    /// Output bits of the quiescent probes re-submitted after a rolling
    /// update, by schedule index (`None` for a failed request).
    quiescent: Vec<(usize, Option<Vec<Vec<u32>>>)>,
    quiescent_wrong: usize,
    /// Quiescent probes whose outputs differ from the pre-update ones.
    restore_mismatches: usize,
    max_staleness: u64,
    before: Counters,
    after: Counters,
}

impl Measured {
    /// Models whose rolling update completed, in roll order.
    fn rolled(&self) -> Vec<usize> {
        self.updates
            .iter()
            .filter(|u| u.stats.is_ok())
            .map(|u| u.model)
            .collect()
    }

    /// Compares every sampled output with its reference. After a rolling
    /// update the quiescent probes must equal both the pre-update outputs
    /// (the final version restores every original) and the standalone
    /// replay of the same updates.
    fn check(&mut self, refs: &References) {
        let runs: Vec<(usize, f64, f64)> = self
            .updates
            .iter()
            .map(|u| (u.model, u.start_s, u.end_s))
            .collect();
        self.window.check(refs, &runs);
        let differs = |expected: &drive::Expected, i: &usize, bits: &Option<Vec<Vec<u32>>>| {
            bits.is_none() || expected.get(i) != bits.as_ref()
        };
        self.quiescent_wrong = self
            .quiescent
            .iter()
            .filter(|(i, bits)| differs(&refs.after, i, bits))
            .count();
        self.restore_mismatches = self
            .quiescent
            .iter()
            .filter(|(i, bits)| differs(&refs.before, i, bits))
            .count();
    }

    fn wrong(&self, s: &Sent) -> bool {
        matches!(
            s.outcome,
            Outcome::Served {
                check: Check::Mismatch,
                ..
            }
        )
    }

    /// Latency from due, `None` for shed, failed or wrong requests.
    fn scored_latency(&self, s: &Sent) -> Option<f64> {
        if self.wrong(s) {
            None
        } else {
            s.latency_s()
        }
    }

    fn probes(&self) -> (usize, usize, usize) {
        let mut checked = 0;
        let mut excused = 0;
        let mut wrong = 0;
        for s in &self.window.sent {
            if let Outcome::Served { check, .. } = s.outcome {
                match check {
                    Check::Unsampled => {}
                    Check::Match => checked += 1,
                    Check::Excused => excused += 1,
                    Check::Mismatch => wrong += 1,
                }
            }
        }
        (checked, excused, wrong)
    }

    fn failed(&self) -> usize {
        self.window
            .sent
            .iter()
            .filter(|s| self.scored_latency(s).is_none())
            .count()
    }

    fn correct(&self) -> bool {
        self.probes().2 == 0
            && self.quiescent_wrong == 0
            && self.restore_mismatches == 0
            && self.max_staleness <= 1
            && self.updates.iter().all(|u| u.stats.is_ok())
    }
}

/// Warms `runtime` up, then measures one window of `schedule`.
fn measure(
    workload: Workload,
    args: &Args,
    runtime: MultiServeRuntime,
    schedule: &[Arrival],
    traced: bool,
) -> Measured {
    let handle = runtime.handle();
    let models = workload.models();
    let specs: Vec<_> = models
        .iter()
        .map(|id| {
            runtime
                .spec(*id)
                .expect("every workload model is co-located")
                .clone()
        })
        .collect();
    let warm = workload.warmup_schedule(args.seed, WARMUP_S);
    drive::drive(
        &handle,
        DriveSpec {
            workload,
            schedule: &warm,
            gens: drive::generators(workload, args.seed, drive::STREAM_WARMUP),
            specs: &specs,
            traced: false,
        },
        Instant::now(),
    );

    let before = counters(&runtime);
    let channels = if workload == Workload::ColoUpdate {
        runtime.update_channels()
    } else {
        Vec::new()
    };
    let stop_monitor = AtomicBool::new(false);
    let done_s = Mutex::new(vec![None; channels.len()]);
    let t0 = Instant::now() + Duration::from_millis(20);
    let (window, updates, monitor) = std::thread::scope(|s| {
        let monitor = s.spawn(|| drive::monitor(&stop_monitor, &channels, &done_s, t0));
        let updater = (!channels.is_empty()).then(|| {
            s.spawn(|| {
                std::thread::sleep(t0.saturating_duration_since(Instant::now()));
                drive::roll_updates(&channels, &done_s, t0)
            })
        });
        let window = drive::drive(
            &handle,
            DriveSpec {
                workload,
                schedule,
                gens: drive::generators(workload, args.seed, drive::STREAM_WINDOW),
                specs: &specs,
                traced,
            },
            t0,
        );
        let updates = updater
            .map(|u| u.join().expect("updater thread"))
            .unwrap_or_default();
        stop_monitor.store(true, Ordering::Relaxed);
        (window, updates, monitor.join().expect("monitor thread"))
    });
    let after = counters(&runtime);
    let quiescent = if workload == Workload::ColoUpdate {
        let wanted = drive::quiescent_indices(schedule, models.len());
        let inputs = drive::stream_inputs(workload, args.seed, schedule, &specs, |i, _| {
            wanted.contains(&i)
        });
        drive::quiescent_outputs(&handle, &models, schedule, &inputs)
    } else {
        Vec::new()
    };
    let max_staleness = runtime
        .update_channels()
        .iter()
        .map(|c| c.max_staleness())
        .max()
        .unwrap_or(0);
    drop(handle);
    runtime.shutdown();
    Measured {
        window,
        monitor,
        updates,
        quiescent,
        quiescent_wrong: 0,
        restore_mismatches: 0,
        max_staleness,
        before,
        after,
    }
}

/// `(name, value, unit)`.
type Metric = (&'static str, f64, &'static str);

fn ms(seconds: f64) -> f64 {
    if seconds.is_finite() {
        seconds * 1e3
    } else {
        MISS_LATENCY_MS
    }
}

/// p50 and p99 of the latencies of `sent`, failures counted as misses.
fn latency_percentiles(m: &Measured, sent: &[&Sent]) -> (f64, f64) {
    let served: Vec<f64> = sent.iter().filter_map(|s| m.scored_latency(s)).collect();
    let misses = sent.len() - served.len();
    let p = |q| percentile_with_misses(&served, misses, q).unwrap_or(f64::INFINITY);
    (p(0.5), p(0.99))
}

/// The gated end-to-end metrics (those `BENCHMARK.json` bounds) and the
/// ones reported beside them without a bound: p99 spreads across runs on
/// a shared 2-vCPU host wider than any bound the benchmark may set, and
/// below the knee the success shares read 1, or all but exactly 1, on
/// every run (failures also show in the result's `failed` count).
fn end_to_end(workload: Workload, m: &Measured, setups: &[f64]) -> (Vec<Metric>, Vec<Metric>) {
    let limit = workload.slo().as_secs_f64();
    let all: Vec<&Sent> = m.window.sent.iter().collect();
    let sent = all.len().max(1) as f64;
    let (p50, p99) = latency_percentiles(m, &all);
    let over_limit = all
        .iter()
        .filter(|s| m.scored_latency(s).is_none_or(|l| l > limit))
        .count() as f64;
    let gated = vec![
        ("p50_ms", ms(p50), "ms"),
        ("rss_mb", m.monitor.peak_rss_kib as f64 / 1024.0, "MB"),
        ("setup_s", median(setups), "s"),
    ];
    let ungated = vec![
        ("p99_ms", ms(p99), "ms"),
        ("ok_frac", 1.0 - m.failed() as f64 / sent, "share"),
        ("slo_ok_frac", 1.0 - over_limit / sent, "share"),
    ];
    (gated, ungated)
}

fn pct(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    stats::nearest_rank(values, p)
}

/// Update freshness over a window: `(lag_ms, install_ms_p50, timeouts,
/// rows_applied, rows_per_s, throttle_waits)`.
fn update_figures(m: &Measured, seconds: f64) -> [f64; 6] {
    let end_s = m.window.elapsed_s;
    let lags: Vec<f64> = m.monitor.events.iter().map(|e| e.lag_s(end_s)).collect();
    let installs: Vec<f64> = m
        .monitor
        .events
        .iter()
        .filter_map(|e| e.installed_s.map(|i| i - e.published_s))
        .collect();
    let stats: Vec<_> = m
        .updates
        .iter()
        .filter_map(|u| u.stats.as_ref().ok())
        .collect();
    let rows: u64 = stats.iter().map(|s| s.rows_applied).sum();
    let throttle: u64 = stats.iter().map(|s| s.throttle_waits).sum();
    let span = m.updates.iter().map(|u| u.end_s).fold(seconds, f64::max);
    [
        if lags.is_empty() {
            0.0
        } else {
            median(&lags) * 1e3
        },
        if installs.is_empty() {
            0.0
        } else {
            median(&installs) * 1e3
        },
        (lags.len() - installs.len()) as f64,
        rows as f64,
        rows as f64 / span,
        throttle as f64,
    ]
}

struct Attribution {
    lag_ms: f64,
    submit_ms: f64,
    wait_ms: f64,
    exec_ms: f64,
    measured_ms: f64,
    replay_batch_ms: f64,
    runtime_batch_ms: f64,
}

/// Per-layer metrics of the traced window `m`. `untraced_p99_ms` is the
/// p99 of the untraced window of the same run.
fn per_layer(
    m: &Measured,
    replay: &replay::Replay,
    untraced_p99_ms: f64,
    seconds: f64,
) -> (Vec<Metric>, Attribution) {
    let sent = &m.window.sent;
    let elapsed = m.window.elapsed_s.max(1e-9);
    let mut lag: Vec<f64> = sent.iter().map(|s| s.lag_s * 1e3).collect();
    let mut submit: Vec<f64> = sent
        .iter()
        .filter_map(|s| s.submit_s)
        .map(|t| t * 1e6)
        .collect();
    let (b, a) = (&m.before, &m.after);
    let completed = a.completed.saturating_sub(b.completed).max(1) as f64;
    let batches = a.batches.saturating_sub(b.batches).max(1) as f64;
    let (mut cpu_q, mut gpu_q, mut spills) = (0u64, 0u64, 0u64);
    for (x, y) in a.decisions.iter().zip(&b.decisions) {
        cpu_q += x.cpu_queries - y.cpu_queries;
        gpu_q += x.gpu_queries - y.gpu_queries;
        spills += x.gpu_spills - y.gpu_spills;
    }
    let busy: Vec<f64> = a
        .worker_busy_s
        .iter()
        .zip(&b.worker_busy_s)
        .map(|(x, y)| x - y)
        .collect();
    let cpu_workers = drive::CPU_WORKERS;
    let cpu_busy: f64 = busy[..cpu_workers].iter().sum();
    let accel_busy: f64 = busy[cpu_workers..].iter().sum();
    let store = a.store.since(&b.store);

    // Batcher wait: the serve span (Response::wall_seconds) minus the
    // replayed execution of a batch of that model and size. The serve
    // span starts inside the submit call, so the call's time is part of
    // it, not added to it.
    let mut waits = Vec::new();
    let mut execs = Vec::new();
    let mut latencies = Vec::new();
    let mut submits_timed = Vec::new();
    let mut lags_served = Vec::new();
    for s in sent {
        if let Outcome::Served { wall_s, batch, .. } = s.outcome {
            if let Some(exec) = replay.exec_s.get(&(s.model, batch)) {
                waits.push(((wall_s - exec) * 1e3).max(0.0));
                execs.push(exec * 1e3);
                latencies.push((s.lag_s + wall_s) * 1e3);
                submits_timed.extend(s.submit_s.map(|t| t * 1e3));
                lags_served.push(s.lag_s * 1e3);
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let mut replayed_batches = (0.0, 0.0);
    for &(ms, w) in &replay.engine_ms {
        replayed_batches.0 += ms * w;
        replayed_batches.1 += w;
    }
    let attribution = Attribution {
        lag_ms: mean(&lags_served),
        submit_ms: mean(&submits_timed),
        wait_ms: mean(&waits),
        exec_ms: mean(&execs),
        measured_ms: mean(&latencies),
        replay_batch_ms: replayed_batches.0 / replayed_batches.1.max(1e-9),
        runtime_batch_ms: (cpu_busy + accel_busy) * 1e3 / batches,
    };
    // Tracing overhead within this one runtime: p50 of the requests whose
    // submit call was timed over p50 of those whose call was not.
    let (timed, untimed): (Vec<&Sent>, Vec<&Sent>) =
        sent.iter().partition(|s| drive::timed_slice(s.due_s));
    let overhead = ms(latency_percentiles(m, &timed).0) / ms(latency_percentiles(m, &untimed).0);
    let [lag_ms, install_ms, timeouts, rows, rows_per_s, throttle] = update_figures(m, seconds);
    let metrics = vec![
        ("loadgen.lag_p99_ms", pct(&mut lag, 0.99), "ms"),
        ("loadgen.sent", sent.len() as f64, "count"),
        ("sched.submit_us_p50", pct(&mut submit, 0.5), "us"),
        ("sched.submit_us_p99", pct(&mut submit, 0.99), "us"),
        ("sched.mean_batch", completed / batches, "count"),
        (
            "sched.accel_query_share",
            gpu_q as f64 / (cpu_q + gpu_q).max(1) as f64,
            "share",
        ),
        ("sched.spills", spills as f64, "count"),
        (
            "sched.cpu_busy_frac",
            cpu_busy / (cpu_workers as f64 * elapsed),
            "share",
        ),
        ("sched.accel_busy_frac", accel_busy / elapsed, "share"),
        ("batcher.wait_ms_p50", pct(&mut waits, 0.5), "ms"),
        ("batcher.wait_ms_p99", pct(&mut waits, 0.99), "ms"),
        (
            "engine.batch_ms_p50",
            replay::weighted_percentile(&replay.engine_ms, 0.5),
            "ms",
        ),
        (
            "engine.batch_ms_p99",
            replay::weighted_percentile(&replay.engine_ms, 0.99),
            "ms",
        ),
        ("engine.overhead_us", replay.overhead_us, "us"),
        ("plan.us_per_query_b1_4", replay.plan_small_us, "us"),
        ("plan.us_per_query_b32_64", replay.plan_large_us, "us"),
        ("par.pool_utilization", replay.pool_utilization, "share"),
        ("par.tasks_per_batch", replay.tasks_per_batch, "count"),
        ("ops.mflop_per_query", replay.mflop_per_query, "Mflop"),
        ("ops.sls_rows_per_query", replay.sls_rows_per_query, "count"),
        ("ops.bytes_per_query", replay.bytes_per_query, "bytes"),
        ("store.sum_row_ns", replay.sum_row_ns, "ns"),
        ("store.hit_rate", store.hit_rate(), "share"),
        (
            "store.lookups_per_query",
            store.lookups as f64 / completed,
            "count",
        ),
        (
            "store.decodes_per_query",
            (store.decode_vector + store.decode_scalar) as f64 / completed,
            "count",
        ),
        (
            "tier.dram_hit_rate",
            store.combined_dram_hit_rate(),
            "share",
        ),
        (
            "tier.cold_reads_per_query",
            store.tier_cold_demand_reads as f64 / completed,
            "count",
        ),
        (
            "tier.demand_wait_us_per_query",
            store.tier_demand_wait_nanos as f64 / 1e3 / completed,
            "us",
        ),
        ("combine.lookup_cut", store.combined_lookup_cut(), "share"),
        ("update.lag_ms", lag_ms, "ms"),
        ("update.install_ms_p50", install_ms, "ms"),
        ("update.install_timeouts", timeouts, "count"),
        ("update.max_staleness", m.max_staleness as f64, "count"),
        ("update.throttle_waits", throttle, "count"),
        ("update.rows_applied", rows, "count"),
        ("update.rows_per_s", rows_per_s, "1/s"),
        (
            "update.restore_mismatches",
            m.restore_mismatches as f64,
            "count",
        ),
        ("e2e.p99_ms", untraced_p99_ms, "ms"),
        ("trace.p50_overhead", overhead, "ratio"),
    ];
    (metrics, attribution)
}

fn metrics_json(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .fold(ObjWriter::new(), |w, (name, value, unit)| {
            w.raw(
                name,
                ObjWriter::new()
                    .num("value", *value)
                    .str("unit", unit)
                    .finish(),
            )
        })
        .finish()
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for (name, value, unit) in metrics {
        println!("  {name:<30} {value:>14.4} {unit}");
    }
}

fn counters_json(m: &Measured) -> String {
    let store = m.after.store.since(&m.before.store);
    let decisions = m
        .after
        .decisions
        .iter()
        .zip(&m.before.decisions)
        .map(|(a, b)| {
            ObjWriter::new()
                .str("model", &a.model)
                .num("cpu_batches", (a.cpu_batches - b.cpu_batches) as f64)
                .num("cpu_queries", (a.cpu_queries - b.cpu_queries) as f64)
                .num("gpu_batches", (a.gpu_batches - b.gpu_batches) as f64)
                .num("gpu_queries", (a.gpu_queries - b.gpu_queries) as f64)
                .num("gpu_spills", (a.gpu_spills - b.gpu_spills) as f64)
                .finish()
        })
        .collect::<Vec<_>>()
        .join(",");
    ObjWriter::new()
        .num(
            "completed",
            m.after.completed.saturating_sub(m.before.completed) as f64,
        )
        .num(
            "batches",
            m.after.batches.saturating_sub(m.before.batches) as f64,
        )
        .raw("decisions", format!("[{decisions}]"))
        .raw(
            "store",
            ObjWriter::new()
                .num("lookups", store.lookups as f64)
                .num("cache_hits", store.cache_hits as f64)
                .num("cache_misses", store.cache_misses as f64)
                .num("decode_vector", store.decode_vector as f64)
                .num("decode_scalar", store.decode_scalar as f64)
                .num("tier_dram_hits", store.tier_dram_hits as f64)
                .num(
                    "tier_cold_demand_reads",
                    store.tier_cold_demand_reads as f64,
                )
                .num(
                    "tier_demand_wait_nanos",
                    store.tier_demand_wait_nanos as f64,
                )
                .num("combined_hits", store.combined_hits as f64)
                .num(
                    "combined_lookups_saved",
                    store.combined_lookups_saved as f64,
                )
                .num("update_rows_applied", store.update_rows_applied as f64)
                .finish(),
        )
        .finish()
}

/// Writes the traced window's spans as JSON lines after a header line:
/// per request a root span (due → completion) with up to three children:
/// due → submit (generator lag), the `submit_with` call (timed slices
/// only), and submitted → completion from `Response::wall_seconds`. Times are microseconds from
/// the window start; each span names its request's model.
fn write_spans(
    path: &std::path::Path,
    header: &Header,
    models: &[drec_models::ModelId],
    sent: &[Sent],
) -> Result<(), String> {
    use std::io::Write;
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let file = std::fs::File::create(path).map_err(io)?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(
        w,
        "{}",
        ObjWriter::new().raw("header", header.to_json()).finish()
    )
    .map_err(io)?;
    let us = |s: f64| (s * 1e6).round();
    for s in sent {
        let call = s.due_s + s.lag_s;
        let end = match s.outcome {
            Outcome::Served { wall_s, .. } => call + wall_s,
            _ => call + s.submit_s.unwrap_or(0.0),
        };
        let mut spans = vec![
            ("request", s.due_s, end, None),
            ("loadgen.lag", s.due_s, call, Some("request")),
        ];
        if let Some(submit_s) = s.submit_s {
            spans.push(("sched.submit", call, call + submit_s, Some("request")));
        }
        if let Outcome::Served { .. } = s.outcome {
            spans.push(("serve", call, end, Some("request")));
        }
        for (name, start, end, parent) in spans {
            let span = ObjWriter::new()
                .str("name", name)
                .num("start_us", us(start))
                .num("end_us", us(end))
                .raw("parent", parent.map_or("null".to_string(), quote))
                .num("request", s.index as f64)
                .str("model", models[s.model].name())
                .finish();
            writeln!(w, "{span}").map_err(io)?;
        }
    }
    w.flush().map_err(io)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let workload = args.workload;
    let seconds = args.seconds as f64;
    let header = Header {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        kernel_backend: drec_tensor::simd::backend_label().to_string(),
        queue_kind: QueueKind::from_env().name().to_string(),
        force_scalar: header::env_or_unset("DREC_FORCE_SCALAR"),
        threads_env: header::env_or_unset("DREC_THREADS"),
        cpu_workers: drive::CPU_WORKERS,
        commit: header::commit(),
        seed: args.seed,
        mode: format!(
            "{}/{}s",
            if args.trace { "traced" } else { "untraced" },
            args.seconds
        ),
        workload: workload.name().to_string(),
    };
    println!("{}", header.line());

    // The measured runtime is the process's first: a runtime started
    // after others have run and shut down in the same process measures
    // slower (about 1.5x on p50 on a 2-core host), so the traced window
    // comes second and the remaining set-ups and the reference outputs
    // come after both windows.
    let schedule = workload.schedule(args.seed, seconds);
    let mut setups = Vec::with_capacity(SETUP_REPS + 1);
    let (runtime, s) = drive::start(workload)?;
    setups.push(s);
    let mut untraced = measure(workload, &args, runtime, &schedule, false);
    let mut traced = if args.trace {
        let (runtime, s) = drive::start(workload)?;
        setups.push(s);
        Some(measure(workload, &args, runtime, &schedule, true))
    } else {
        None
    };
    while setups.len() < SETUP_REPS {
        let (runtime, s) = drive::start(workload)?;
        setups.push(s);
        runtime.shutdown();
    }
    let refs = drive::references(workload, args.seed, &schedule, &untraced.rolled())?;
    untraced.check(&refs);
    if let Some(t) = traced.as_mut() {
        if t.rolled() == untraced.rolled() {
            t.check(&refs);
        } else {
            t.check(&drive::references(
                workload,
                args.seed,
                &schedule,
                &t.rolled(),
            )?);
        }
    }
    let (e2e, ungated) = end_to_end(workload, &untraced, &setups);
    let samples = untraced.window.sent.len();
    let mut lag: Vec<f64> = untraced.window.sent.iter().map(|s| s.lag_s * 1e3).collect();
    let lag_p99 = pct(&mut lag, 0.99);
    let limit_ms = workload.slo().as_secs_f64() * 1e3;
    let valid = stats::run_valid(lag_p99, limit_ms);
    let (checked, excused, wrong) = untraced.probes();
    println!(
        "window: sent {samples} in {:.2}s (supports p{:.1}), failed {}, probes checked \
         {checked}, excused under update {excused}, wrong {wrong}",
        untraced.window.send_s,
        stats::supported_tail(samples) * 100.0,
        untraced.failed(),
    );
    if workload == Workload::ColoUpdate {
        let [lag_ms, install_ms, timeouts, rows, rows_per_s, _] =
            update_figures(&untraced, seconds);
        println!(
            "update: {} channel runs, lag median {lag_ms:.1} ms, installs median \
             {install_ms:.1} ms, {timeouts} versions never installed on every reader, \
             {rows} rows ({rows_per_s:.1}/s), max staleness {}, quiescent probes unlike the \
             same updates replayed standalone {}, unlike the pre-update outputs {}{}",
            untraced.updates.len(),
            untraced.max_staleness,
            untraced.quiescent_wrong,
            untraced.restore_mismatches,
            if untraced.restore_mismatches > 0 {
                " (RESTORE NOT BIT-IDENTICAL, which fails the output check: the restoring \
                 version re-encodes the captured rows, which the int8 store does not \
                 reproduce exactly)"
            } else {
                ""
            }
        );
    }
    println!(
        "generator lag p99 {lag_p99:.3} ms against a {limit_ms} ms limit: run {}",
        if valid {
            "valid".to_string()
        } else {
            format!(
                "INVALID (lag over {:.0}% of the limit)",
                stats::MAX_LAG_SHARE * 100.0
            )
        }
    );
    print_metrics("end-to-end", &e2e);
    print_metrics("end-to-end, reported without a bound", &ungated);
    let mut correct = untraced.correct();
    let mut attempted = untraced.window.sent.len();
    let mut failed = untraced.failed();
    let mut layers = Vec::new();

    if let Some(traced) = traced {
        let replayed = replay::replay(workload, args.seed, &schedule, &traced.window.sent)?;
        let all: Vec<&Sent> = untraced.window.sent.iter().collect();
        let untraced_p99 = ms(latency_percentiles(&untraced, &all).1);
        let (metrics, attr) = per_layer(&traced, &replayed, untraced_p99, seconds);
        let sum = attr.lag_ms + attr.wait_ms + attr.exec_ms;
        println!(
            "attribution ({}, mean over served requests, ms):",
            workload.name()
        );
        println!("  generator lag    {:>10.4} (due to submit)", attr.lag_ms);
        println!(
            "  batcher wait     {:>10.4} (serve span less replayed execution; holds the \
             {:.4} ms submit call)",
            attr.wait_ms, attr.submit_ms
        );
        println!(
            "  engine execution {:>10.4} (replayed run_batch)",
            attr.exec_ms
        );
        println!("  sum              {:>10.4}", sum);
        println!("  measured         {:>10.4}", attr.measured_ms);
        println!(
            "  gap              {:>10.4} ({:.1}% of measured: requests whose replayed \
             execution outlasted their serve span, where the wait is counted as 0)",
            attr.measured_ms - sum,
            (attr.measured_ms - sum) / attr.measured_ms.max(1e-9) * 100.0
        );
        println!(
            "  per batch: replayed run_batch {:.4} ms vs runtime worker busy {:.4} ms",
            attr.replay_batch_ms, attr.runtime_batch_ms
        );
        println!(
            "  tracing overhead: p50 of requests with timed submit calls / p50 of the \
             others, alternating {}s slices of this window = {:.4}; replay took {:.2}s",
            drive::TRACE_SLICE_S,
            metrics
                .iter()
                .find(|m| m.0 == "trace.p50_overhead")
                .map_or(0.0, |m| m.1),
            replayed.seconds
        );
        print_metrics("per-layer", &metrics);
        let spans = args
            .out
            .join(format!("spans-{}-seed{}.jsonl", workload.name(), args.seed));
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        write_spans(&spans, &header, &workload.models(), &traced.window.sent)?;
        println!("spans: {}", spans.display());
        correct &= traced.correct();
        attempted = traced.window.sent.len();
        failed = traced.failed();
        layers = metrics;
        std::fs::write(
            args.out.join(format!(
                "counters-{}-seed{}.json",
                workload.name(),
                args.seed
            )),
            counters_json(&traced),
        )
        .map_err(|e| e.to_string())?;
    }

    let result = ObjWriter::new()
        .raw("header", header.to_json())
        .raw("correct", correct.to_string())
        .num("attempted", attempted as f64)
        .num("failed", failed as f64)
        .raw("valid", valid.to_string())
        .raw("metrics", metrics_json(&e2e))
        .raw("ungated", metrics_json(&ungated))
        .raw("layers", metrics_json(&layers))
        .raw("counters", counters_json(&untraced))
        .finish();
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, &result).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result: {}", path.display());
    if !correct {
        println!("OUTPUT CHECK FAILED");
    }

    let shown = if args.trace { &layers } else { &e2e };
    println!(
        "{}",
        ObjWriter::new()
            .raw("correct", correct.to_string())
            .raw("attempted", attempted.to_string())
            .raw("failed", failed.to_string())
            .raw("metrics", metrics_json(shown))
            .finish()
    );
    Ok(correct)
}
