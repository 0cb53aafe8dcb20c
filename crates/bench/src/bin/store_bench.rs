//! Benchmarks and acceptance gates for the `drec-store` embedding
//! parameter store: direct-tensor vs store-backed bit-identity across
//! thread counts, hot-row cache hit rates across encoding × cache
//! capacity × Zipf skew, and quantization error against the documented
//! per-encoding bounds. Writes `BENCH_store.json`.
//!
//! Flags:
//!
//! * `--smoke` — tiny shapes, correctness gates only (CI mode),
//! * `--quick` — fewer lookups per sweep cell.
//!
//! Gates (asserted in both modes unless noted):
//!
//! * store-backed f32 RM1 outputs are bit-identical to the plain dense
//!   build at every pool size and batch, cold and warm cache,
//! * int8 cuts resident bytes ≥ 3× vs f32 at dim 32,
//! * every decoded row stays within its encoding's documented error
//!   bound,
//! * hot-row cache hit rate ≥ 60% at Zipf s = 1.0 with the cache sized
//!   to 10% of rows (full mode; smoke asserts a nonzero hit rate),
//! * the store's cold-decode path (runtime-dispatched SIMD kernels,
//!   cache off) beats a raw scalar-oracle loop over the same encoded
//!   bytes by ≥1.3× for int8 on AVX2+FMA hosts (auto-skip with a logged
//!   notice elsewhere), and the vector/scalar decode counters account
//!   for every cold decode on the active backend,
//! * tiered DRAM/SSD legs under Zipf s = 1.0 with the DRAM budget at
//!   25% of rows (virtual cold-read charging, so deterministic in both
//!   modes): DRAM hit rate ≥ 80%, tiering alone ≥ 5× the DRAM-only
//!   mean lookup, and stream prefetch pulls it back ≤ 2× while
//!   converting ≥ 50% of would-be cold demand misses.

use std::sync::Arc;
use std::time::Instant;

use drec_models::{ModelId, ModelScale};
use drec_par::ParPool;
use drec_store::{quantize_row, EmbeddingStore, RowEncoding, StoreConfig, TierConfig};
use drec_tensor::simd::{self, KernelBackend};
use drec_tensor::ParamInit;
use drec_workload::{CategoricalDist, QueryGen};

/// Required hot-row cache hit rate at Zipf s = 1.0 with the cache sized
/// to 10% of rows (full mode only).
const HIT_RATE_GATE: f64 = 0.60;
/// Required resident-bytes compression of int8 vs f32 at dim 32.
const COMPRESSION_GATE: f64 = 3.0;
/// Required int8 cold-decode speedup of the store's dispatched path over
/// the raw scalar-oracle loop on AVX2+FMA hosts. Deliberately lower than
/// kernel_bench's raw-kernel gate: the store path pays shard locks and
/// counter atomics the oracle loop doesn't.
const DECODE_SPEEDUP_GATE: f64 = 1.3;
/// Required DRAM (cache + tier) hit rate under Zipf s = 1.0
/// with the DRAM budget at 25% of rows. Asserted in smoke too: the
/// cold-read model charges virtual nanoseconds, so the tiered gates are
/// deterministic.
const TIER_HIT_RATE_GATE: f64 = 0.80;
/// Required fraction of would-be cold demand misses the stream
/// prefetcher converts into DRAM hits.
const PREFETCH_CONVERSION_GATE: f64 = 0.50;
/// Tiering without prefetch must be at least this many times slower than
/// DRAM-only per mean lookup — i.e. the cold tier genuinely hurts.
const TIERED_SLOWDOWN_FLOOR: f64 = 5.0;
/// With stream prefetch the mean lookup must stay within this factor of
/// DRAM-only — i.e. prefetch genuinely hides the cold-read latency.
const PREFETCH_SLOWDOWN_CEILING: f64 = 2.0;
/// Nominal DRAM lookup cost the tiered latency model charges against
/// (the virtual-time baseline every tiered mean adds demand waits to).
const NOMINAL_DRAM_NS: f64 = 100.0;

struct Args {
    smoke: bool,
    quick: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        quick: false,
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--quick" => args.quick = true,
            other => eprintln!("warning: unknown argument '{other}' (supported: --smoke --quick)"),
        }
    }
    args
}

struct IdentityRow {
    threads: usize,
    batch: usize,
    identical: bool,
}

/// Runs RM1 with plain dense tables and with a store-backed f32 build on
/// the same Zipf input stream, across pool sizes, twice per
/// configuration so the second pass hits a warm hot-row cache. Outputs
/// must match bit for bit every time.
fn check_bit_identity(scale: ModelScale, batches: &[usize]) -> (Vec<IdentityRow>, f64) {
    let seed = 11;
    let mut dense = ModelId::Rm1.build(scale, seed).expect("dense build");
    let store = Arc::new(EmbeddingStore::new(StoreConfig {
        encoding: RowEncoding::F32,
        cache_capacity_rows: 2048,
        ..StoreConfig::default()
    }));
    let mut stored = ModelId::Rm1
        .build_with_store(scale, seed, Arc::clone(&store))
        .expect("store-backed build");

    let mut gen = QueryGen::zipf(0xD1CE, 1.0);
    let baseline_pool = ParPool::new(1);
    let mut rows = Vec::new();
    for &batch in batches {
        let inputs = gen.batch(dense.spec(), batch);
        let reference =
            drec_par::with_pool(&baseline_pool, || dense.run(inputs.clone())).expect("dense run");
        for threads in [1usize, 2, 4] {
            let pool = ParPool::new(threads);
            // Two passes: cold cache, then warm — cache state must never
            // change outputs.
            for _pass in 0..2 {
                let got = drec_par::with_pool(&pool, || stored.run(inputs.clone()))
                    .expect("store-backed run");
                let identical = reference.len() == got.len()
                    && reference.iter().zip(&got).all(|(a, b)| {
                        let a = a.as_dense().expect("dense output").as_slice();
                        let b = b.as_dense().expect("dense output").as_slice();
                        a.len() == b.len()
                            && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                    });
                assert!(
                    identical,
                    "store-backed f32 RM1 differs from dense at {threads} thread(s), batch {batch}"
                );
                rows.push(IdentityRow {
                    threads,
                    batch,
                    identical,
                });
            }
        }
    }
    (rows, store.stats().hit_rate())
}

struct SweepRow {
    encoding: RowEncoding,
    cache_frac: f64,
    zipf_s: f64,
    hit_rate: f64,
    compression: f64,
    resident_bytes: u64,
    f32_bytes: u64,
    lookups_per_sec: f64,
}

/// Standalone store driven by Zipf row traffic: one cell per encoding ×
/// cache-capacity fraction × skew exponent.
#[allow(clippy::too_many_arguments)]
fn sweep_cell(
    rows: usize,
    dim: usize,
    data: &[f32],
    encoding: RowEncoding,
    cache_frac: f64,
    zipf_s: f64,
    warm: usize,
    measure: usize,
) -> SweepRow {
    let store = Arc::new(EmbeddingStore::new(StoreConfig {
        encoding,
        cache_capacity_rows: (rows as f64 * cache_frac) as usize,
        ..StoreConfig::default()
    }));
    let handle = store.register(1, 0, rows, dim, data).expect("register");
    let pinned = store.pin(handle);
    let dist = CategoricalDist::Zipf { s: zipf_s };
    let mut rng = ParamInit::new(0xACE);
    let mut acc = vec![0.0f32; dim];
    for _ in 0..warm {
        pinned.sum_row(dist.sample(&mut rng, rows), &mut acc);
    }
    let baseline = store.stats();
    let start = Instant::now();
    for _ in 0..measure {
        pinned.sum_row(dist.sample(&mut rng, rows), &mut acc);
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(&acc);
    let delta = store.stats().since(&baseline);
    let totals = store.stats();
    SweepRow {
        encoding,
        cache_frac,
        zipf_s,
        hit_rate: delta.hit_rate(),
        compression: totals.compression(),
        resident_bytes: totals.resident_bytes,
        f32_bytes: totals.f32_bytes,
        lookups_per_sec: measure as f64 / elapsed,
    }
}

struct DecodeRow {
    encoding: RowEncoding,
    store_gb_s: f64,
    oracle_gb_s: f64,
    speedup: f64,
    decode_vector: u64,
    decode_scalar: u64,
}

/// Cold-decode bandwidth: the store's dispatched pooled-sum path (cache
/// disabled, so every lookup decodes from a shard) against a raw
/// scalar-oracle loop over the same encoded bytes — the "what would this
/// cost without the SIMD kernels" baseline. Also checks the store's
/// vector/scalar decode counters account for exactly the measured
/// lookups on the side matching the active backend.
fn bench_decode_bandwidth(rows: usize, dim: usize, data: &[f32], lookups: usize) -> Vec<DecodeRow> {
    let mut state = 0xDEC0_u64;
    let ids: Vec<u32> = (0..lookups)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % rows as u64) as u32
        })
        .collect();
    let mut acc = vec![0.0f32; dim];
    [RowEncoding::F32, RowEncoding::F16, RowEncoding::Int8]
        .into_iter()
        .map(|encoding| {
            let store = Arc::new(EmbeddingStore::new(StoreConfig {
                encoding,
                cache_capacity_rows: 0,
                ..StoreConfig::default()
            }));
            let handle = store.register(1, 0, rows, dim, data).expect("register");
            let pinned = store.pin(handle);
            // Warm pass (page in the shards), then measure.
            acc.fill(0.0);
            for &id in &ids {
                pinned.sum_row(id, &mut acc);
            }
            let base = store.stats();
            acc.fill(0.0);
            let start = Instant::now();
            for &id in &ids {
                pinned.sum_row(id, &mut acc);
            }
            let store_seconds = start.elapsed().as_secs_f64();
            std::hint::black_box(&acc);
            let delta = store.stats().since(&base);
            let decoded = delta.decode_vector + delta.decode_scalar;
            assert_eq!(
                decoded as usize,
                ids.len(),
                "{encoding}: every cache-off lookup must tally exactly one decode"
            );
            let wrong_side = match simd::active_backend() {
                KernelBackend::Avx2Fma => delta.decode_scalar,
                KernelBackend::Scalar => delta.decode_vector,
            };
            assert_eq!(
                wrong_side, 0,
                "{encoding}: decode counters disagree with the active backend ({delta:?})"
            );

            // Raw scalar-oracle loop over the same encoded bytes.
            let oracle_seconds = match encoding {
                RowEncoding::F32 => {
                    acc.fill(0.0);
                    let start = Instant::now();
                    for &id in &ids {
                        let r = id as usize;
                        simd::scalar::sum_f32_into(&data[r * dim..(r + 1) * dim], &mut acc);
                    }
                    start.elapsed().as_secs_f64()
                }
                RowEncoding::F16 => {
                    let bits: Vec<u16> = data
                        .iter()
                        .map(|&v| drec_store::f32_to_f16_bits(v))
                        .collect();
                    acc.fill(0.0);
                    let start = Instant::now();
                    for &id in &ids {
                        let r = id as usize;
                        simd::scalar::sum_f16_into(&bits[r * dim..(r + 1) * dim], &mut acc);
                    }
                    start.elapsed().as_secs_f64()
                }
                RowEncoding::Int8 => {
                    let mut q = vec![0u8; rows * dim];
                    let mut scale = vec![0f32; rows];
                    let mut bias = vec![0f32; rows];
                    for r in 0..rows {
                        let (s, b) = quantize_row(
                            &data[r * dim..(r + 1) * dim],
                            &mut q[r * dim..(r + 1) * dim],
                        );
                        scale[r] = s;
                        bias[r] = b;
                    }
                    acc.fill(0.0);
                    let start = Instant::now();
                    for &id in &ids {
                        let r = id as usize;
                        simd::scalar::sum_i8_into(
                            &q[r * dim..(r + 1) * dim],
                            scale[r],
                            bias[r],
                            &mut acc,
                        );
                    }
                    start.elapsed().as_secs_f64()
                }
            };
            std::hint::black_box(&acc);
            let bytes = (ids.len() * encoding.bytes_per_row(dim)) as f64;
            DecodeRow {
                encoding,
                store_gb_s: bytes / store_seconds / 1e9,
                oracle_gb_s: bytes / oracle_seconds / 1e9,
                speedup: oracle_seconds / store_seconds,
                decode_vector: delta.decode_vector,
                decode_scalar: delta.decode_scalar,
            }
        })
        .collect()
}

struct ErrorRow {
    encoding: RowEncoding,
    max_abs_err: f32,
    max_bound: f32,
}

/// Decodes every row of a quantized store back to f32 and checks the
/// worst absolute error against the encoding's documented bound. The
/// data mixes uniform rows with adversarial ones: a constant row (int8
/// must be exact) and a wide-range row (stresses the scale).
fn check_dequant_error(dim: usize) -> Vec<ErrorRow> {
    let rows = 256;
    let mut init = ParamInit::new(0xE44);
    let mut data = init.uniform(&[rows, dim], -0.05, 0.05).as_slice().to_vec();
    for v in &mut data[..dim] {
        *v = 0.037; // constant row: int8 quantizes exactly
    }
    for v in &mut data[dim..2 * dim] {
        *v *= 200.0; // wide-range row: large scale, coarse int8 steps
    }
    [RowEncoding::F16, RowEncoding::Int8]
        .into_iter()
        .map(|encoding| {
            let store = Arc::new(EmbeddingStore::new(StoreConfig {
                encoding,
                cache_capacity_rows: 0,
                ..StoreConfig::default()
            }));
            let handle = store.register(1, 0, rows, dim, &data).expect("register");
            let pinned = store.pin(handle);
            let mut decoded = vec![0.0f32; dim];
            let mut max_abs_err = 0.0f32;
            let mut max_bound = 0.0f32;
            for r in 0..rows {
                let original = &data[r * dim..(r + 1) * dim];
                pinned.read_row(r as u32, &mut decoded);
                let err = original
                    .iter()
                    .zip(&decoded)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                let bound = encoding.error_bound(original);
                assert!(
                    err <= bound,
                    "{encoding}: row {r} decode error {err:e} exceeds documented bound {bound:e}"
                );
                max_abs_err = max_abs_err.max(err);
                max_bound = max_bound.max(bound);
            }
            ErrorRow {
                encoding,
                max_abs_err,
                max_bound,
            }
        })
        .collect()
}

struct TierRow {
    leg: &'static str,
    dram_hit_rate: f64,
    cold_demand_reads: u64,
    prefetch_issued: u64,
    prefetch_conversion: f64,
    mean_lookup_ns: f64,
    slowdown: f64,
}

/// Tiered DRAM/SSD legs over identical Zipf s = 1.0 traffic with the
/// DRAM budget at 25% of rows (plus the usual 10% hot-row cache):
///
/// * `dram_only` — no tier, the latency baseline (`NOMINAL_DRAM_NS`),
/// * `tiered` — demand misses pay the simulated cold read,
/// * `tiered_prefetch` — a 64-query stream window issues
///   intent + fill before the demand lookups, modelling the serve-side
///   prefetcher with perfect lookahead.
///
/// The cold-read model charges *virtual* nanoseconds
/// ([`drec_store::Pacing::Charge`]), so every number here is
/// deterministic: mean lookup latency is `NOMINAL_DRAM_NS` plus the
/// charged demand wait per lookup. Prefetch waits land on the separate
/// overlapped counter — that asymmetry *is* the benefit being measured.
fn bench_tiered(
    rows: usize,
    dim: usize,
    data: &[f32],
    warm: usize,
    measure: usize,
) -> Vec<TierRow> {
    let budget = rows / 4;
    // Hot-row cache off: DRAM is exactly the 25% tier budget, and the
    // tier sees the full access stream (a decoded-row cache in front
    // would starve the CLOCK of recency signal for the hottest rows).
    let cache_rows = 0;
    let dist = CategoricalDist::Zipf { s: 1.0 };
    // Frequency admission needs the head of the distribution to earn
    // its touch counts before measuring: size the warm phase so the
    // boundary row (rank = budget) sees a few touches.
    let warm = warm.max(25 * budget);
    let mut rng = ParamInit::new(0x71E4);
    let ids: Vec<u32> = (0..warm + measure)
        .map(|_| dist.sample(&mut rng, rows))
        .collect();
    let mut acc = vec![0.0f32; dim];
    let mut out = Vec::new();

    let make_store = |tier: Option<TierConfig>| {
        Arc::new(EmbeddingStore::new(StoreConfig {
            cache_capacity_rows: cache_rows,
            tier,
            ..StoreConfig::default()
        }))
    };
    let row_for = |leg: &'static str, delta: &drec_store::StoreStats, mean_ns: f64| TierRow {
        leg,
        dram_hit_rate: delta.dram_hit_rate(),
        cold_demand_reads: delta.tier_cold_demand_reads,
        prefetch_issued: delta.prefetch_issued,
        prefetch_conversion: delta.prefetch_conversion(),
        mean_lookup_ns: mean_ns,
        slowdown: mean_ns / NOMINAL_DRAM_NS,
    };

    // Leg 1: DRAM-only baseline — every lookup costs the nominal DRAM
    // charge, nothing else.
    {
        let store = make_store(None);
        let handle = store.register(1, 0, rows, dim, data).expect("register");
        let pinned = store.pin(handle);
        for &id in &ids[..warm] {
            pinned.sum_row(id, &mut acc);
        }
        let base = store.stats();
        for &id in &ids[warm..] {
            pinned.sum_row(id, &mut acc);
        }
        let delta = store.stats().since(&base);
        out.push(row_for("dram_only", &delta, NOMINAL_DRAM_NS));
    }

    // Leg 2: tiered, demand-only — cold misses stall the lookup. The
    // 2-touch admission filter keeps one-visit tail rows from churning
    // the hot set (plain CLOCK converges to LRU-class ~75% here).
    {
        let mut tier = TierConfig::new(budget);
        tier.admit_after = 2;
        let store = make_store(Some(tier));
        let handle = store.register(1, 0, rows, dim, data).expect("register");
        let pinned = store.pin(handle);
        for &id in &ids[..warm] {
            pinned.sum_row(id, &mut acc);
        }
        let base = store.stats();
        for &id in &ids[warm..] {
            pinned.sum_row(id, &mut acc);
        }
        let delta = store.stats().since(&base);
        let mean = NOMINAL_DRAM_NS + delta.mean_demand_wait_nanos();
        out.push(row_for("tiered", &delta, mean));
    }

    // Leg 3: tiered + stream prefetch — a 64-query window registers
    // intent and fills ahead of the demand pass, the way the serve
    // runtime's prefetch thread runs ahead of batch drain.
    {
        let mut tier = TierConfig::new(budget);
        tier.prefetch = true;
        tier.admit_after = 2;
        let store = make_store(Some(tier));
        let handle = store.register(1, 0, rows, dim, data).expect("register");
        let pinned = store.pin(handle);
        let run = |stream: &[u32], acc: &mut [f32]| {
            for window in stream.chunks(64) {
                for &id in window {
                    if pinned.note_prefetch_intent(id) {
                        pinned.prefetch_row(id);
                    }
                }
                for &id in window {
                    pinned.sum_row(id, acc);
                }
            }
        };
        run(&ids[..warm], &mut acc);
        let base = store.stats();
        run(&ids[warm..], &mut acc);
        let delta = store.stats().since(&base);
        let mean = NOMINAL_DRAM_NS + delta.mean_demand_wait_nanos();
        out.push(row_for("tiered_prefetch", &delta, mean));
    }

    std::hint::black_box(&acc);
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9}")
    } else {
        "null".to_string()
    }
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    smoke: bool,
    scale: ModelScale,
    sweep_rows_count: usize,
    identity: &[IdentityRow],
    identity_hit_rate: f64,
    sweep: &[SweepRow],
    decode: &[DecodeRow],
    errors: &[ErrorRow],
    tiered: &[TierRow],
    gate_hit_rate: Option<f64>,
    gate_compression: f64,
) {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"model_scale\": \"{scale:?}\",\n  \"sweep_table_rows\": {sweep_rows_count},\n  \"kernel_backend\": \"{}\",\n",
        if smoke { "smoke" } else { "full" },
        simd::backend_label()
    ));
    s.push_str("  \"f32_bit_identity\": [\n");
    for (i, r) in identity.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"threads\": {}, \"batch\": {}, \"identical\": {}}}{}\n",
            r.threads,
            r.batch,
            r.identical,
            if i + 1 < identity.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"identity_run_hit_rate\": {},\n  \"cache_sweep\": [\n",
        json_f64(identity_hit_rate)
    ));
    for (i, r) in sweep.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"encoding\": \"{}\", \"cache_frac\": {}, \"zipf_s\": {}, \"hit_rate\": {}, \"compression\": {}, \"resident_bytes\": {}, \"f32_bytes\": {}, \"lookups_per_sec\": {}}}{}\n",
            r.encoding.name(),
            json_f64(r.cache_frac),
            json_f64(r.zipf_s),
            json_f64(r.hit_rate),
            json_f64(r.compression),
            r.resident_bytes,
            r.f32_bytes,
            json_f64(r.lookups_per_sec),
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"decode_bandwidth\": [\n");
    for (i, r) in decode.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"encoding\": \"{}\", \"store_gb_per_s\": {}, \"scalar_oracle_gb_per_s\": {}, \"speedup\": {}, \"decode_vector\": {}, \"decode_scalar\": {}}}{}\n",
            r.encoding.name(),
            json_f64(r.store_gb_s),
            json_f64(r.oracle_gb_s),
            json_f64(r.speedup),
            r.decode_vector,
            r.decode_scalar,
            if i + 1 < decode.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"dequant_error\": [\n");
    for (i, r) in errors.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"encoding\": \"{}\", \"max_abs_err\": {}, \"max_bound\": {}}}{}\n",
            r.encoding.name(),
            json_f64(f64::from(r.max_abs_err)),
            json_f64(f64::from(r.max_bound)),
            if i + 1 < errors.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"tiered\": [\n");
    for (i, r) in tiered.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"leg\": \"{}\", \"dram_hit_rate\": {}, \"cold_demand_reads\": {}, \"prefetch_issued\": {}, \"prefetch_conversion\": {}, \"mean_lookup_ns\": {}, \"slowdown_vs_dram\": {}}}{}\n",
            r.leg,
            json_f64(r.dram_hit_rate),
            r.cold_demand_reads,
            r.prefetch_issued,
            json_f64(r.prefetch_conversion),
            json_f64(r.mean_lookup_ns),
            json_f64(r.slowdown),
            if i + 1 < tiered.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"checks\": {\n");
    s.push_str("    \"f32_bit_identical\": true,\n    \"dequant_within_bounds\": true,\n");
    s.push_str(&format!(
        "    \"hot_cache_hit_rate_at_10pct_s1\": {},\n    \"hit_rate_gate\": {HIT_RATE_GATE},\n",
        gate_hit_rate.map_or("null".to_string(), json_f64)
    ));
    s.push_str(&format!(
        "    \"int8_compression\": {},\n    \"compression_gate\": {COMPRESSION_GATE},\n",
        json_f64(gate_compression)
    ));
    let vector_gates = simd::active_backend() == KernelBackend::Avx2Fma;
    s.push_str(&format!(
        "    \"int8_decode_speedup\": {},\n    \"decode_speedup_gate\": {},\n",
        decode
            .iter()
            .find(|r| r.encoding == RowEncoding::Int8)
            .map_or("null".to_string(), |r| json_f64(r.speedup)),
        if vector_gates {
            DECODE_SPEEDUP_GATE.to_string()
        } else {
            "null".to_string()
        }
    ));
    let tier_leg = |leg: &str| tiered.iter().find(|r| r.leg == leg);
    s.push_str(&format!(
        "    \"tier_dram_hit_rate\": {},\n    \"tier_hit_rate_gate\": {TIER_HIT_RATE_GATE},\n",
        tier_leg("tiered").map_or("null".to_string(), |r| json_f64(r.dram_hit_rate))
    ));
    s.push_str(&format!(
        "    \"prefetch_conversion\": {},\n    \"prefetch_conversion_gate\": {PREFETCH_CONVERSION_GATE},\n",
        tier_leg("tiered_prefetch").map_or("null".to_string(), |r| json_f64(r.prefetch_conversion))
    ));
    s.push_str(&format!(
        "    \"tiered_slowdown\": {},\n    \"tiered_slowdown_floor\": {TIERED_SLOWDOWN_FLOOR},\n",
        tier_leg("tiered").map_or("null".to_string(), |r| json_f64(r.slowdown))
    ));
    s.push_str(&format!(
        "    \"prefetch_slowdown\": {},\n    \"prefetch_slowdown_ceiling\": {PREFETCH_SLOWDOWN_CEILING}\n",
        tier_leg("tiered_prefetch").map_or("null".to_string(), |r| json_f64(r.slowdown))
    ));
    s.push_str("  }\n}\n");
    std::fs::write(path, s).expect("write BENCH_store.json");
}

fn main() {
    let args = parse_args();
    let scale = if args.smoke {
        ModelScale::Tiny
    } else {
        ModelScale::Paper
    };
    println!(
        "store_bench: {} mode, {scale:?} model scale",
        if args.smoke { "smoke" } else { "full" }
    );

    let identity_batches: &[usize] = if args.smoke { &[1, 16] } else { &[1, 16, 64] };
    println!("Dense vs store-backed RM1 (f32), Zipf s=1.0 traffic, pools 1/2/4, cold+warm cache:");
    let (identity, identity_hit_rate) = check_bit_identity(scale, identity_batches);
    println!(
        "  bit-identical in all {} runs (hot-row hit rate over the store-backed runs: {:.0}%)",
        identity.len(),
        identity_hit_rate * 100.0
    );

    let (rows, dim) = if args.smoke {
        (4_096, 32)
    } else {
        (50_000, 32)
    };
    let (warm, measure) = match (args.smoke, args.quick) {
        (true, _) => (5_000, 20_000),
        (false, true) => (30_000, 50_000),
        (false, false) => (150_000, 200_000),
    };
    let encodings = [RowEncoding::F32, RowEncoding::F16, RowEncoding::Int8];
    let fracs: &[f64] = if args.smoke {
        &[0.10]
    } else {
        &[0.01, 0.10, 0.25]
    };
    let exps: &[f64] = if args.smoke {
        &[0.6, 1.0]
    } else {
        &[0.6, 1.0, 1.4]
    };
    let data = ParamInit::new(0x5EED)
        .uniform(&[rows, dim], -0.05, 0.05)
        .as_slice()
        .to_vec();
    println!("Hot-row cache sweep ({rows} rows x dim {dim}, {measure} measured lookups/cell):");
    let mut sweep = Vec::new();
    for &encoding in &encodings {
        for &frac in fracs {
            for &s in exps {
                let row = sweep_cell(rows, dim, &data, encoding, frac, s, warm, measure);
                println!(
                    "  {:<4} cache {:>4.0}% zipf {s:.1}: hit rate {:>5.1}%, {:.2}x compression, {:.1}M lookups/s",
                    encoding.name(),
                    frac * 100.0,
                    row.hit_rate * 100.0,
                    row.compression,
                    row.lookups_per_sec / 1e6
                );
                sweep.push(row);
            }
        }
    }

    let decode_lookups = if args.smoke || args.quick {
        50_000
    } else {
        200_000
    };
    println!(
        "Cold-decode bandwidth (cache off, {decode_lookups} lookups, store dispatched path vs scalar oracle, backend {}):",
        simd::backend_label()
    );
    let decode = bench_decode_bandwidth(rows, dim, &data, decode_lookups);
    for r in &decode {
        println!(
            "  {:<4} store {:.2} GB/s vs oracle {:.2} GB/s ({:.2}x); decodes: {} vector / {} scalar",
            r.encoding.name(),
            r.store_gb_s,
            r.oracle_gb_s,
            r.speedup,
            r.decode_vector,
            r.decode_scalar
        );
    }

    println!("Dequantization error vs documented bounds (adversarial rows included):");
    let errors = check_dequant_error(dim);
    for r in &errors {
        println!(
            "  {:<4}: max |err| {:.3e} <= max bound {:.3e}",
            r.encoding.name(),
            r.max_abs_err,
            r.max_bound
        );
    }

    println!(
        "Tiered DRAM/SSD legs (Zipf s=1.0, DRAM budget {} rows = 25%, no hot-row cache, virtual cold-read charging):",
        rows / 4
    );
    let tiered = bench_tiered(rows, dim, &data, warm, measure);
    for r in &tiered {
        println!(
            "  {:<16} DRAM hit {:>5.1}%, cold demand {:>6}, prefetch issued {:>6} (conv {:>5.1}%), mean lookup {:>8.0} ns ({:.2}x DRAM-only)",
            r.leg,
            r.dram_hit_rate * 100.0,
            r.cold_demand_reads,
            r.prefetch_issued,
            r.prefetch_conversion * 100.0,
            r.mean_lookup_ns,
            r.slowdown
        );
    }

    let gate_hit_rate = sweep
        .iter()
        .find(|r| {
            r.encoding == RowEncoding::Int8 && (r.cache_frac - 0.10).abs() < 1e-9 && r.zipf_s == 1.0
        })
        .map(|r| r.hit_rate);
    let gate_compression = sweep
        .iter()
        .find(|r| r.encoding == RowEncoding::Int8)
        .map(|r| r.compression)
        .expect("int8 sweep rows present");

    write_json(
        "BENCH_store.json",
        args.smoke,
        scale,
        rows,
        &identity,
        identity_hit_rate,
        &sweep,
        &decode,
        &errors,
        &tiered,
        gate_hit_rate,
        gate_compression,
    );
    println!("Wrote BENCH_store.json");

    if simd::active_backend() == KernelBackend::Avx2Fma {
        let int8 = decode
            .iter()
            .find(|r| r.encoding == RowEncoding::Int8)
            .expect("int8 decode row present");
        assert!(
            int8.speedup >= DECODE_SPEEDUP_GATE,
            "int8 store cold-decode speedup {:.2}x over the scalar oracle below the {DECODE_SPEEDUP_GATE}x gate",
            int8.speedup
        );
        println!(
            "Gate: int8 store cold-decode {:.2}x >= {DECODE_SPEEDUP_GATE}x over the scalar oracle — ok",
            int8.speedup
        );
    } else {
        println!(
            "Note: kernel backend is {} (no AVX2+FMA vector path active); decode speedup gate skipped",
            simd::backend_label()
        );
    }

    assert!(
        gate_compression >= COMPRESSION_GATE,
        "int8 resident-bytes compression {gate_compression:.2}x below the {COMPRESSION_GATE}x gate"
    );
    println!("Gate: int8 compression {gate_compression:.2}x >= {COMPRESSION_GATE}x — ok");
    let hit = gate_hit_rate.expect("10%-cache s=1.0 cell present");
    if args.smoke {
        assert!(
            hit > 0.0,
            "hot-row cache saw no hits under Zipf traffic (hit rate {hit:.3})"
        );
        println!(
            "Gate: nonzero hot-cache hit rate under Zipf traffic ({:.1}%) — ok",
            hit * 100.0
        );
    } else {
        assert!(
            hit >= HIT_RATE_GATE,
            "hit rate {hit:.3} at 10% cache, Zipf s=1.0 below the {HIT_RATE_GATE} gate"
        );
        println!(
            "Gate: hit rate {:.1}% >= {:.0}% at 10% cache, Zipf s=1.0 — ok",
            hit * 100.0,
            HIT_RATE_GATE * 100.0
        );
    }
    // Tiered gates: the cold-read model charges virtual nanoseconds, so
    // these are deterministic and hold in smoke mode too.
    let tier_leg = |leg: &str| {
        tiered
            .iter()
            .find(|r| r.leg == leg)
            .unwrap_or_else(|| panic!("tiered leg '{leg}' present"))
    };
    let t = tier_leg("tiered");
    assert!(
        t.dram_hit_rate >= TIER_HIT_RATE_GATE,
        "DRAM hit rate {:.3} at 25% budget, Zipf s=1.0 below the {TIER_HIT_RATE_GATE} gate",
        t.dram_hit_rate
    );
    assert!(
        t.slowdown >= TIERED_SLOWDOWN_FLOOR,
        "tiering alone only {:.2}x slower than DRAM-only — cold tier not biting (floor {TIERED_SLOWDOWN_FLOOR}x)",
        t.slowdown
    );
    let p = tier_leg("tiered_prefetch");
    assert!(
        p.prefetch_conversion >= PREFETCH_CONVERSION_GATE,
        "prefetch converted only {:.3} of would-be cold demand misses (gate {PREFETCH_CONVERSION_GATE})",
        p.prefetch_conversion
    );
    assert!(
        p.slowdown <= PREFETCH_SLOWDOWN_CEILING,
        "mean lookup with prefetch {:.2}x DRAM-only exceeds the {PREFETCH_SLOWDOWN_CEILING}x ceiling",
        p.slowdown
    );
    println!(
        "Gate: tier DRAM hit {:.1}% >= {:.0}%, tiered-alone {:.1}x >= {TIERED_SLOWDOWN_FLOOR}x, prefetch conv {:.1}% >= {:.0}% at {:.2}x <= {PREFETCH_SLOWDOWN_CEILING}x — ok",
        t.dram_hit_rate * 100.0,
        TIER_HIT_RATE_GATE * 100.0,
        t.slowdown,
        p.prefetch_conversion * 100.0,
        PREFETCH_CONVERSION_GATE * 100.0,
        p.slowdown
    );
    println!("All checks passed.");
}
