//! The traced run's single-thread replay: after the runtime has shut
//! down, the batch sizes it formed run again through `Engine::run_batch`,
//! `RecModel::run`, `RecModel::run_traced` and `PinnedTable::sum_row` on
//! a standalone store with the runtime's configuration, timed from here.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use drec_core::serving::LatencyCurve;
use drec_models::InputSpec;
use drec_ops::Value;
use drec_par::ParPool;
use drec_serve::{coalesce_inputs, Engine, Request, SubmitOptions};
use drec_workload::QueryGen;
use servebench::stats::median;
use servebench::workload::{Arrival, Workload};

use crate::drive::{
    generators, standalone_models, stream_inputs, Outcome, Sent, MODEL_SEED, STREAM_REPLAY,
};

/// Timed repetitions per formed `(model, batch size)`.
const REPS: usize = 3;
/// Requests of the window's stream whose operator counts are taken.
const OPS_REQUESTS: usize = 64;
/// Requests of the window's stream whose ids replay through `sum_row`.
const SUM_ROW_REQUESTS: usize = 1000;
/// Batch sizes of the small and large plan buckets.
const SMALL_BATCHES: [usize; 3] = [1, 2, 4];
const LARGE_BATCHES: [usize; 2] = [32, 64];
/// Width of the pool the `par` figures are taken on.
const PAR_THREADS: usize = 2;

/// What the replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Median `Engine::run_batch` seconds per formed `(model, size)`.
    pub exec_s: HashMap<(usize, usize), f64>,
    /// `(run_batch ms, weight)` per timed batch, weighted by how many
    /// batches of that model and size the runtime formed.
    pub engine_ms: Vec<(f64, f64)>,
    /// Weighted mean of `run_batch` minus `RecModel::run` on the same
    /// batch, microseconds.
    pub overhead_us: f64,
    /// Weighted mean `RecModel::run` microseconds per query over batches
    /// of 1–4 and of 32–64.
    pub plan_small_us: f64,
    /// See `plan_small_us`.
    pub plan_large_us: f64,
    /// Operator counts per query from `run_traced` (batch 1): Mflop.
    pub mflop_per_query: f64,
    /// Rows gathered by sparse lookups per query.
    pub sls_rows_per_query: f64,
    /// Bytes per query computed from tensor sizes: activations in and
    /// out, parameters read and gathered rows.
    pub bytes_per_query: f64,
    /// Pool tasks per formed batch run on a two-thread pool.
    pub tasks_per_batch: f64,
    /// Busy share of that pool's threads over those batches.
    pub pool_utilization: f64,
    /// `PinnedTable::sum_row` nanoseconds per row over the window's ids.
    pub sum_row_ns: f64,
    /// Seconds the replay took.
    pub seconds: f64,
}

/// A batch of `size` single-sample requests from `gen`.
fn requests(gen: &mut QueryGen, spec: &InputSpec, size: usize) -> Vec<Request> {
    (0..size)
        .map(|j| Request::new(j as u64, gen.batch(spec, 1), SubmitOptions::default()).0)
        .collect()
}

/// Weighted nearest-rank percentile of `(value, weight)` samples.
pub fn weighted_percentile(samples: &[(f64, f64)], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = sorted.iter().map(|s| s.1).sum();
    let mut acc = 0.0;
    for (value, weight) in &sorted {
        acc += weight;
        if acc >= p * total {
            return *value;
        }
    }
    sorted.last().map_or(0.0, |s| s.0)
}

/// Replays `window`'s formed batches and the workload's own stream.
pub fn replay(
    workload: Workload,
    seed: u64,
    schedule: &[Arrival],
    sent: &[Sent],
) -> Result<Replay, String> {
    let started = Instant::now();
    let (store, mut models) = standalone_models(workload)?;
    let pool = ParPool::new(1);
    // Only modelled timings read an engine's curve; the replay times
    // everything itself.
    let curve = LatencyCurve::from_points(vec![(1, 1e-6)]);
    let mut engines: Vec<Engine> = workload
        .models()
        .into_iter()
        .map(|id| {
            let model = id
                .build_with_store(
                    drec_models::ModelScale::Paper,
                    MODEL_SEED,
                    Arc::clone(&store),
                )
                .map_err(|e| format!("{id} build: {e}"))?;
            Ok(Engine::with_store(
                model,
                curve.clone(),
                Arc::clone(&pool),
                Some(Arc::clone(&store)),
            ))
        })
        .collect::<Result<_, String>>()?;
    let specs: Vec<_> = models.iter().map(|m| m.spec().clone()).collect();

    // The window's own stream: operator counts and sum_row ids.
    let head = &schedule[..schedule.len().min(SUM_ROW_REQUESTS.max(OPS_REQUESTS))];
    let stream: Vec<(usize, Vec<Value>)> = stream_inputs(workload, seed, head, &specs, |_, _| true)
        .into_iter()
        .map(|(i, inputs)| (head[i].model, inputs))
        .collect();
    let mut out = Replay::default();
    let (mut flops, mut rows, mut bytes) = (0.0, 0.0, 0.0);
    for (m, inputs) in stream.iter().take(OPS_REQUESTS) {
        let (_, trace) = models[*m]
            .run_traced(inputs.clone(), 1)
            .map_err(|e| format!("run_traced: {e}"))?;
        flops += trace.total_flops();
        rows += trace.total_gather_rows();
        bytes += trace
            .ops
            .iter()
            .map(|o| (o.bytes_in + o.bytes_out + o.param_bytes) as f64 + o.work.gather_bytes())
            .sum::<f64>();
    }
    let n = stream.len().clamp(1, OPS_REQUESTS) as f64;
    out.mflop_per_query = flops / n / 1e6;
    out.sls_rows_per_query = rows / n;
    out.bytes_per_query = bytes / n;

    let bindings: Vec<_> = models.iter().map(|m| m.store_bindings()).collect();
    let mut lookups = 0u64;
    let t = Instant::now();
    for (m, inputs) in stream.iter().take(SUM_ROW_REQUESTS) {
        for b in &bindings[*m] {
            let ids = inputs[b.input_index]
                .ids_ref("sum_row replay")
                .map_err(|e| e.to_string())?;
            let mut acc = vec![0.0f32; b.pin.dim()];
            for &id in &ids.ids {
                b.pin.sum_row(id % b.physical_rows, &mut acc);
            }
            lookups += ids.ids.len() as u64;
            black_box(&acc);
        }
    }
    out.sum_row_ns = t.elapsed().as_nanos() as f64 / lookups.max(1) as f64;
    drop(stream);

    // Batch sizes the runtime formed: b responses per batch of size b.
    let mut formed: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for s in sent {
        if let Outcome::Served { batch, .. } = s.outcome {
            *formed.entry((s.model, batch)).or_default() += 1;
        }
    }
    let mut replay_gens = generators(workload, seed, STREAM_REPLAY);
    let mut overhead = (0.0, 0.0);
    for (&(m, size), &responses) in &formed {
        let batches = responses.div_ceil(size);
        let reps = batches.min(REPS);
        let weight = batches as f64 / reps as f64;
        let mut times = Vec::with_capacity(reps);
        for r in 0..reps {
            let requests = requests(&mut replay_gens[m], &specs[m], size);
            let inputs = coalesce_inputs(&specs[m], &requests);
            let time_engine = |engines: &mut Vec<Engine>| -> Result<f64, String> {
                let t = Instant::now();
                black_box(engines[m].run_batch(&requests).map_err(|e| e.to_string())?);
                Ok(t.elapsed().as_secs_f64())
            };
            let time_plan = |models: &mut Vec<drec_models::RecModel>| -> Result<f64, String> {
                let inputs = inputs.clone();
                let t = Instant::now();
                black_box(
                    drec_par::with_pool(&pool, || models[m].run(inputs))
                        .map_err(|e| e.to_string())?,
                );
                Ok(t.elapsed().as_secs_f64())
            };
            // Alternate which call goes first so warm caches favour neither.
            let (engine_s, plan_s) = if r % 2 == 0 {
                let e = time_engine(&mut engines)?;
                (e, time_plan(&mut models)?)
            } else {
                let p = time_plan(&mut models)?;
                (time_engine(&mut engines)?, p)
            };
            times.push(engine_s);
            out.engine_ms.push((engine_s * 1e3, weight));
            overhead.0 += (engine_s - plan_s) * 1e6 * weight;
            overhead.1 += weight;
        }
        out.exec_s.insert((m, size), median(&times));
    }
    out.overhead_us = if overhead.1 > 0.0 {
        overhead.0 / overhead.1
    } else {
        0.0
    };

    // Intra-op parallelism: the runtime's registry sees only its tier-0
    // pool, one thread wide, on which plan waves run inline. Each formed
    // batch runs once more on the tuner's first widened tier (two threads).
    let wide = ParPool::new(PAR_THREADS);
    let (mut tasks, mut busy, mut wall, mut weights) = (0.0, 0.0, 0.0, 0.0);
    for (&(m, size), &responses) in &formed {
        let weight = responses.div_ceil(size) as f64;
        let inputs = coalesce_inputs(&specs[m], &requests(&mut replay_gens[m], &specs[m], size));
        let before = wide.stats();
        let t = Instant::now();
        black_box(drec_par::with_pool(&wide, || models[m].run(inputs)).map_err(|e| e.to_string())?);
        wall += t.elapsed().as_secs_f64() * weight;
        let delta = wide.stats().since(&before);
        tasks += delta.tasks as f64 * weight;
        busy += delta.busy_seconds() * weight;
        weights += weight;
    }
    out.tasks_per_batch = tasks / weights.max(1e-9);
    out.pool_utilization = busy / (PAR_THREADS as f64 * wall).max(1e-9);

    let shares = workload.popularity();
    let mut bucket = |sizes: &[usize]| -> Result<f64, String> {
        let mut total = 0.0;
        for (m, share) in shares.iter().enumerate() {
            let mut per_query = Vec::new();
            for &b in sizes {
                let mut times = Vec::with_capacity(REPS);
                for _ in 0..REPS {
                    let inputs = replay_gens[m].batch(&specs[m], b);
                    let t = Instant::now();
                    black_box(
                        drec_par::with_pool(&pool, || models[m].run(inputs))
                            .map_err(|e| e.to_string())?,
                    );
                    times.push(t.elapsed().as_secs_f64() * 1e6 / b as f64);
                }
                per_query.push(median(&times));
            }
            total += share * per_query.iter().sum::<f64>() / per_query.len() as f64;
        }
        Ok(total)
    };
    out.plan_small_us = bucket(&SMALL_BATCHES)?;
    out.plan_large_us = bucket(&LARGE_BATCHES)?;
    out.seconds = started.elapsed().as_secs_f64();
    Ok(out)
}
