//! Runtime set-up and the open-loop window: one seeded generator feeds a
//! sender that submits each request when it is due; a collector waits on
//! the responses and checks sampled outputs bit for bit; a monitor samples
//! resident memory and, under updates, each channel's published and
//! installed versions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use drec_models::{InputSpec, ModelId, ModelScale, RecModel};
use drec_ops::Value;
use drec_sched::{ModelSlo, MultiServeHandle, MultiServeRuntime, SchedConfig};
use drec_serve::{
    EmbeddingStore, ModelUpdateChannel, RowEncoding, StoreConfig, SubmitOptions, UpdatePlan,
    Updater, UpdaterStats,
};
use drec_store::{CombineConfig, TierConfig};
use drec_workload::QueryGen;
use servebench::workload::{Arrival, Workload};

/// Parameter seed of every model: the weights are part of the program
/// under test, the workload seed varies only its inputs.
pub const MODEL_SEED: u64 = 7;

/// CPU serving workers; the simulated accelerator adds one more thread.
pub const CPU_WORKERS: usize = 1;

/// Input-generator streams (see [`Workload::input_seed`]).
pub const STREAM_WINDOW: u64 = 1;
/// Warm-up traffic stream.
pub const STREAM_WARMUP: u64 = 2;
/// Traced-replay batch stream.
pub const STREAM_REPLAY: u64 = 3;

/// The traced window times the `submit_with` calls of requests due in
/// every other slice this long, so tracing overhead is read within one
/// runtime: timed slices against untimed ones.
pub const TRACE_SLICE_S: f64 = 1.0;

/// Whether the traced window times the submit call of a request due at
/// `due_s`.
pub fn timed_slice(due_s: f64) -> bool {
    ((due_s / TRACE_SLICE_S).floor() as u64).is_multiple_of(2)
}

/// Requests the generator may run ahead of the sender.
const LOOKAHEAD: usize = 256;

/// A response not back within this long counts as failed, so a hung
/// runtime ends the run instead of stalling it.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Probes per model kept for the quiescent check after a rolling update.
const QUIESCENT_PROBES: usize = 4;

/// The rolling update `colo_update` runs on every model's channel: three
/// perturbing versions, then the version that restores the originals.
pub const UPDATE_PLAN: UpdatePlan = UpdatePlan {
    versions: 4,
    rows_per_version: 256,
    pace: Duration::from_millis(50),
    seed: 0x5EED,
};

/// The shared store: int8 rows, a 16k-row hot-row cache, a 64k-row DRAM
/// tier over the simulated SSD (charged, not slept) and the combining
/// cache.
pub fn store_config() -> StoreConfig {
    StoreConfig {
        encoding: RowEncoding::Int8,
        cache_capacity_rows: 16 * 1024,
        tier: Some(TierConfig {
            combine: Some(CombineConfig::default()),
            ..TierConfig::new(64 * 1024)
        }),
        ..StoreConfig::default()
    }
}

/// The runtime under test for `workload`: Paper-scale models on one
/// shared int8 store, the tuner and the simulated accelerator on, and
/// admission limits wide enough that the offered load never sheds.
pub fn sched_config(workload: Workload) -> SchedConfig {
    let models = workload
        .models()
        .into_iter()
        .map(|id| ModelSlo::new(id, workload.slo()))
        .collect();
    let mut cfg = SchedConfig::tiny(models);
    cfg.scale = ModelScale::Paper;
    cfg.seed = MODEL_SEED;
    cfg.cpu_workers = CPU_WORKERS;
    cfg.max_batch = 64;
    cfg.queue_capacity = 1 << 16;
    cfg.delay_budget = Duration::from_secs(3600);
    cfg.store = Some(store_config());
    debug_assert!(cfg.gpu.is_some() && cfg.tuner.is_some());
    cfg
}

/// Starts the runtime and returns it with its set-up time: from the call
/// to `MultiServeRuntime::start` until it returns ready.
pub fn start(workload: Workload) -> Result<(MultiServeRuntime, f64), String> {
    let cfg = sched_config(workload);
    let t = Instant::now();
    let runtime = MultiServeRuntime::start(cfg).map_err(|e| format!("runtime start: {e}"))?;
    Ok((runtime, t.elapsed().as_secs_f64()))
}

/// One input generator per model for `stream`.
pub fn generators(workload: Workload, seed: u64, stream: u64) -> Vec<QueryGen> {
    (0..workload.models().len())
        .map(|m| QueryGen::zipf(workload.input_seed(seed, m, stream), workload.id_skew()))
        .collect()
}

/// A model's outputs as raw bits, for exact comparison.
pub fn output_bits(outputs: &[Value]) -> Vec<Vec<u32>> {
    outputs
        .iter()
        .map(|v| {
            v.as_dense()
                .map(|t| t.as_slice().iter().map(|f| f.to_bits()).collect())
                .unwrap_or_default()
        })
        .collect()
}

/// Builds `workload`'s models on a fresh store with the runtime's store
/// configuration, with their execution plans compiled as the engines
/// compile them.
pub fn standalone_models(
    workload: Workload,
) -> Result<(Arc<EmbeddingStore>, Vec<RecModel>), String> {
    let store = Arc::new(EmbeddingStore::new(store_config()));
    let models = workload
        .models()
        .into_iter()
        .map(|id| {
            let mut model = id
                .build_with_store(ModelScale::Paper, MODEL_SEED, Arc::clone(&store))
                .map_err(|e| format!("{id} build: {e}"))?;
            model.compile_plan();
            Ok(model)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((store, models))
}

/// The window's input stream regenerated from its seed: `(schedule
/// index, inputs)` for every arrival `keep` selects, in schedule order.
pub fn stream_inputs(
    workload: Workload,
    seed: u64,
    schedule: &[Arrival],
    specs: &[InputSpec],
    keep: impl Fn(usize, &Arrival) -> bool,
) -> Vec<(usize, Vec<Value>)> {
    let mut gens = generators(workload, seed, STREAM_WINDOW);
    schedule
        .iter()
        .enumerate()
        .filter_map(|(i, a)| {
            let inputs = gens[a.model].batch(&specs[a.model], 1);
            keep(i, a).then_some((i, inputs))
        })
        .collect()
}

/// Schedule indices of the first probes of each model: re-submitted once
/// a rolling update has restored every original.
pub fn quiescent_indices(schedule: &[Arrival], models: usize) -> Vec<usize> {
    let mut kept = vec![0usize; models];
    schedule
        .iter()
        .enumerate()
        .filter(|(_, a)| {
            let keep = a.probe && kept[a.model] < QUIESCENT_PROBES;
            kept[a.model] += usize::from(keep);
            keep
        })
        .map(|(i, _)| i)
        .collect()
}

/// Expected output bits by schedule index.
pub type Expected = HashMap<usize, Vec<Vec<u32>>>;

/// Reference outputs of every probe in `schedule`: each probe's inputs
/// run alone (batch 1) through a standalone model on a fresh store with
/// the runtime's configuration. `before` holds the outputs of the
/// original parameters; `after` those once [`UPDATE_PLAN`] has rolled
/// through the models in `rolled` on that store too (equal to `before`
/// for every other model).
#[derive(Debug, Default)]
pub struct References {
    /// Outputs before any update.
    pub before: Expected,
    /// Outputs after the rolled models' plans completed.
    pub after: Expected,
}

/// Computes [`References`] for `schedule`.
pub fn references(
    workload: Workload,
    seed: u64,
    schedule: &[Arrival],
    rolled: &[usize],
) -> Result<References, String> {
    let (store, mut models) = standalone_models(workload)?;
    let specs: Vec<InputSpec> = models.iter().map(|m| m.spec().clone()).collect();
    let probes = stream_inputs(workload, seed, schedule, &specs, |_, a| a.probe);
    let run = |models: &mut [RecModel], keep: &dyn Fn(usize) -> bool| -> Result<Expected, String> {
        probes
            .iter()
            .filter(|(i, _)| keep(schedule[*i].model))
            .map(|(i, inputs)| {
                let out = models[schedule[*i].model]
                    .run(inputs.clone())
                    .map_err(|e| format!("reference run: {e}"))?;
                Ok((*i, output_bits(&out)))
            })
            .collect()
    };
    let before = run(&mut models, &|_| true)?;
    let ids = workload.models();
    for &m in rolled {
        let channel = Arc::new(ModelUpdateChannel::new(
            ids[m].name(),
            drec_models::store_namespace(ids[m], ModelScale::Paper, MODEL_SEED),
            Some(Arc::clone(&store)),
        ));
        // With a baseline the updater draws weight-set perturbations from
        // the same stream that picks rows, as it does in the runtime.
        channel.offer_baseline(|| models[m].capture_fc_weights());
        Updater::new(channel, UPDATE_PLAN)
            .run()
            .map_err(|e| format!("reference update of {}: {e}", ids[m]))?;
    }
    let mut after = run(&mut models, &|m| rolled.contains(&m))?;
    for (i, bits) in &before {
        after.entry(*i).or_insert_with(|| bits.clone());
    }
    Ok(References { before, after })
}

/// The bit-for-bit check of one sampled response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Not a sampled request, or not yet compared.
    Unsampled,
    /// Outputs equal the reference bit for bit.
    Match,
    /// Outputs differ from the reference.
    Mismatch,
    /// Served while its model's rolling update was in flight, when no
    /// single reference applies.
    Excused,
}

/// What became of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Answered with outputs.
    Served {
        /// `Response::wall_seconds`: submitted to completion.
        wall_s: f64,
        /// Size of the batch it rode in.
        batch: usize,
        /// Output check.
        check: Check,
    },
    /// Refused at submission (shed or rejected).
    Shed,
    /// Answered with an error (failed or deadline exceeded).
    Failed,
}

/// One sent request as the benchmark saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sent {
    /// Schedule index.
    pub index: usize,
    /// Due time, seconds from the window start.
    pub due_s: f64,
    /// Model index.
    pub model: usize,
    /// Due to the start of the `submit_with` call: the generator's lag.
    pub lag_s: f64,
    /// Duration of the `submit_with` call, in the traced window's timed
    /// slices only.
    pub submit_s: Option<f64>,
    /// Result.
    pub outcome: Outcome,
}

impl Sent {
    /// Latency from due to completion, if served. The serve span starts
    /// when `submit_with` stamps the request, which the call's start
    /// precedes only by input validation.
    pub fn latency_s(&self) -> Option<f64> {
        match self.outcome {
            Outcome::Served { wall_s, .. } => Some(self.lag_s + wall_s),
            _ => None,
        }
    }
}

/// Everything one window produced.
#[derive(Debug)]
pub struct Window {
    /// Every sent request, in send order.
    pub sent: Vec<Sent>,
    /// Seconds from the window start until the last response arrived.
    pub elapsed_s: f64,
    /// Seconds from the window start until the sender stopped.
    pub send_s: f64,
    /// Output bits of every served probe, by schedule index.
    pub probe_bits: HashMap<usize, Vec<Vec<u32>>>,
}

impl Window {
    /// Compares every served probe with the reference that applies when
    /// it ran: `before` until its model's update run started, `after` once
    /// the run returned, none in between. `runs` holds `(model, start_s,
    /// end_s)` per rolled model.
    pub fn check(&mut self, refs: &References, runs: &[(usize, f64, f64)]) {
        for s in &mut self.sent {
            let call_s = s.due_s + s.lag_s;
            let (Outcome::Served { check, wall_s, .. }, Some(bits)) =
                (&mut s.outcome, self.probe_bits.get(&s.index))
            else {
                continue;
            };
            let run = runs.iter().find(|r| r.0 == s.model);
            let expected = match run {
                Some(&(_, _, end_s)) if call_s > end_s => refs.after.get(&s.index),
                Some(&(_, start_s, _)) if call_s + *wall_s >= start_s => {
                    *check = Check::Excused;
                    continue;
                }
                _ => refs.before.get(&s.index),
            };
            *check = if expected == Some(bits) {
                Check::Match
            } else {
                Check::Mismatch
            };
        }
    }
}

struct Submitted {
    index: usize,
    call_start: Instant,
    call_end: Option<Instant>,
    result: drec_serve::Result<drec_serve::PendingResponse>,
}

/// How to drive one window.
pub struct DriveSpec<'a> {
    /// The traffic mix.
    pub workload: Workload,
    /// The arrival schedule.
    pub schedule: &'a [Arrival],
    /// Per-model input generators (consumed in schedule order).
    pub gens: Vec<QueryGen>,
    /// Per-model input specs.
    pub specs: &'a [InputSpec],
    /// Time the `submit_with` calls of requests due in timed slices (see
    /// [`timed_slice`]).
    pub traced: bool,
}

/// Drives one open-loop window through `handle` and returns what each
/// request saw. `t0` is the window start every due time is relative to.
pub fn drive(handle: &MultiServeHandle, spec: DriveSpec<'_>, t0: Instant) -> Window {
    let DriveSpec {
        workload,
        schedule,
        mut gens,
        specs,
        traced,
    } = spec;
    let models: Vec<ModelId> = workload.models();
    let (input_tx, input_rx) = mpsc::sync_channel::<(usize, Vec<Value>)>(LOOKAHEAD);
    let (sub_tx, sub_rx) = mpsc::channel::<Submitted>();

    let ((sent, probe_bits), send_s) = std::thread::scope(|s| {
        s.spawn(move || {
            for (i, a) in schedule.iter().enumerate() {
                let inputs = gens[a.model].batch(&specs[a.model], 1);
                if input_tx.send((i, inputs)).is_err() {
                    return;
                }
            }
        });
        let collector = s.spawn(move || {
            let mut sent = Vec::with_capacity(schedule.len());
            let mut probe_bits = HashMap::new();
            for sub in sub_rx {
                let a = schedule[sub.index];
                let lag_s = sub.call_start.saturating_duration_since(t0).as_secs_f64() - a.due_s;
                let submit_s = sub.call_end.map(|e| (e - sub.call_start).as_secs_f64());
                let outcome = match sub.result {
                    Err(_) => Outcome::Shed,
                    Ok(pending) => match pending.wait_timeout(RESPONSE_TIMEOUT) {
                        None | Some(Err(_)) => Outcome::Failed,
                        Some(Ok(response)) => {
                            if a.probe {
                                probe_bits.insert(sub.index, output_bits(&response.outputs));
                            }
                            Outcome::Served {
                                wall_s: response.wall_seconds,
                                batch: response.batch,
                                check: Check::Unsampled,
                            }
                        }
                    },
                };
                sent.push(Sent {
                    index: sub.index,
                    due_s: a.due_s,
                    model: a.model,
                    lag_s,
                    submit_s,
                    outcome,
                });
            }
            (sent, probe_bits)
        });

        for (index, inputs) in input_rx.iter() {
            let due = t0 + Duration::from_secs_f64(schedule[index].due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let call_start = Instant::now();
            let result = handle.submit_with(
                models[schedule[index].model],
                inputs,
                SubmitOptions::default(),
            );
            let call_end = (traced && timed_slice(schedule[index].due_s)).then(Instant::now);
            let _ = sub_tx.send(Submitted {
                index,
                call_start,
                call_end,
                result,
            });
        }
        let send_s = t0.elapsed().as_secs_f64();
        drop(sub_tx);
        (collector.join().expect("collector thread"), send_s)
    });
    Window {
        sent,
        elapsed_s: t0.elapsed().as_secs_f64(),
        send_s,
        probe_bits,
    }
}

/// One version's publish and install as the monitor observed them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VersionEvent {
    /// Model index.
    pub model: usize,
    /// Snapshot version.
    pub version: u64,
    /// When `current_version` first showed it, seconds from the window
    /// start.
    pub published_s: f64,
    /// When `min_installed` first reached it, if it did.
    pub installed_s: Option<f64>,
    /// When it stopped being awaited without installing: a newer version
    /// was published, or the channel's update run returned.
    pub censored_s: Option<f64>,
}

impl VersionEvent {
    /// Publish to install on every reader, or to the censoring time for a
    /// version no reader set finished installing.
    pub fn lag_s(&self, end_s: f64) -> f64 {
        self.installed_s.or(self.censored_s).unwrap_or(end_s) - self.published_s
    }
}

/// What the monitor saw.
#[derive(Debug, Default)]
pub struct MonitorReport {
    /// Peak resident memory sampled, KiB.
    pub peak_rss_kib: u64,
    /// Every observed version publish.
    pub events: Vec<VersionEvent>,
}

/// Resident set size of this process, KiB (0 where unavailable).
pub fn rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Samples RSS every 10 ms and each channel's versions every 1 ms until
/// `stop`; `done_s[m]` (set by the updater) censors model `m`'s
/// uninstalled versions when its update run returns.
pub fn monitor(
    stop: &AtomicBool,
    channels: &[Arc<ModelUpdateChannel>],
    done_s: &Mutex<Vec<Option<f64>>>,
    t0: Instant,
) -> MonitorReport {
    let mut report = MonitorReport::default();
    let mut seen = vec![0u64; channels.len()];
    let mut tick = 0u64;
    // Versions are only watched under updates; RSS needs no finer tick.
    let (tick_every, rss_every) = if channels.is_empty() {
        (Duration::from_millis(10), 1)
    } else {
        (Duration::from_millis(1), 10)
    };
    while !stop.load(Ordering::Relaxed) {
        if tick.is_multiple_of(rss_every) {
            report.peak_rss_kib = report.peak_rss_kib.max(rss_kib());
        }
        tick += 1;
        let now_s = t0.elapsed().as_secs_f64();
        let done = done_s.lock().expect("update-run times lock").clone();
        for (m, channel) in channels.iter().enumerate() {
            let current = channel.current_version();
            if current > seen[m] {
                for e in report
                    .events
                    .iter_mut()
                    .filter(|e| e.model == m && e.installed_s.is_none() && e.censored_s.is_none())
                {
                    e.censored_s = Some(now_s);
                }
                for version in seen[m] + 1..=current {
                    report.events.push(VersionEvent {
                        model: m,
                        version,
                        published_s: now_s,
                        installed_s: None,
                        censored_s: None,
                    });
                }
                seen[m] = current;
            }
            let installed = channel.min_installed();
            for e in report
                .events
                .iter_mut()
                .filter(|e| e.model == m && e.installed_s.is_none() && e.censored_s.is_none())
            {
                if e.version <= installed {
                    e.installed_s = Some(now_s);
                } else if let Some(d) = done[m] {
                    e.censored_s = Some(d);
                }
            }
        }
        std::thread::sleep(tick_every);
    }
    report.peak_rss_kib = report.peak_rss_kib.max(rss_kib());
    report
}

/// One channel's rolling-update run.
#[derive(Debug, Clone)]
pub struct UpdateRun {
    /// Model index.
    pub model: usize,
    /// Run start and end, seconds from the window start.
    pub start_s: f64,
    /// See `start_s`.
    pub end_s: f64,
    /// The updater's counters, or its error.
    pub stats: Result<UpdaterStats, String>,
}

/// Runs [`UPDATE_PLAN`] on every channel at once, one updater thread per
/// channel, and returns when all have finished. A channel's versions only
/// move forward, so each is rolled once per runtime.
pub fn roll_updates(
    channels: &[Arc<ModelUpdateChannel>],
    done_s: &Mutex<Vec<Option<f64>>>,
    t0: Instant,
) -> Vec<UpdateRun> {
    std::thread::scope(|s| {
        let threads: Vec<_> = channels
            .iter()
            .enumerate()
            .map(|(model, channel)| {
                s.spawn(move || {
                    let start_s = t0.elapsed().as_secs_f64();
                    let stats = Updater::new(Arc::clone(channel), UPDATE_PLAN)
                        .run()
                        .map_err(|e| e.to_string());
                    let end_s = t0.elapsed().as_secs_f64();
                    done_s.lock().expect("update-run times lock")[model] = Some(end_s);
                    UpdateRun {
                        model,
                        start_s,
                        end_s,
                        stats,
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("updater thread"))
            .collect()
    })
}

/// Submits each quiescent probe once more (after a rolling update has
/// restored every original) and returns its output bits, `None` for a
/// request that failed.
pub fn quiescent_outputs(
    handle: &MultiServeHandle,
    models: &[ModelId],
    schedule: &[Arrival],
    probes: &[(usize, Vec<Value>)],
) -> Vec<(usize, Option<Vec<Vec<u32>>>)> {
    probes
        .iter()
        .map(|(i, inputs)| {
            let bits = handle
                .submit_with(
                    models[schedule[*i].model],
                    inputs.clone(),
                    SubmitOptions::default(),
                )
                .ok()
                .and_then(|p| p.wait_timeout(RESPONSE_TIMEOUT))
                .and_then(Result::ok)
                .map(|r| output_bits(&r.outputs));
            (*i, bits)
        })
        .collect()
}
