//! Cross-model SIMD determinism: every model's inference output is
//! bit-identical across worker-pool sizes for every row encoding, and a
//! store-backed f32 build matches the plain dense build exactly.
//!
//! This is the end-to-end check behind the kernel-dispatch contract in
//! `drec_tensor::simd`: the vector paths for f32/f16/int8 are bit-identical
//! to the scalar oracles, and the FMA GEMM micro-kernel fixes its reduction
//! order per cell, so neither the backend nor the thread count may change a
//! single output bit. CI runs this suite twice — with and without
//! `DREC_FORCE_SCALAR=1` — and both legs must produce self-consistent runs.

use std::sync::Arc;

use deeprec::models::{InputSlot, ModelId, ModelScale, RecModel};
use deeprec::ops::{IdList, Value};
use deeprec::par::{with_pool, ParPool};
use deeprec::store::{EmbeddingStore, RowEncoding, StoreConfig, TierConfig};
use deeprec::tensor::ParamInit;

const SEED: u64 = 17;
const BATCH: usize = 3;

fn make_inputs(model: &RecModel, batch: usize, seed: u64) -> Vec<Value> {
    let mut rng = ParamInit::new(seed);
    model
        .spec()
        .slots()
        .iter()
        .map(|(_, slot)| match slot {
            InputSlot::Dense { width } => Value::dense(rng.uniform(&[batch, *width], -1.0, 1.0)),
            InputSlot::Ids { lookups, id_space } => {
                let ids: Vec<u32> = (0..batch * lookups)
                    .map(|_| rng.next_index(*id_space) as u32)
                    .collect();
                Value::ids(IdList::new(ids, vec![*lookups as u32; batch]))
            }
        })
        .collect()
}

fn output_bits(model: &mut RecModel) -> Vec<u32> {
    let inputs = make_inputs(model, BATCH, 5);
    let out = model.run(inputs).unwrap();
    out[0]
        .as_dense()
        .unwrap()
        .as_slice()
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

fn store_bits(id: ModelId, encoding: RowEncoding) -> Vec<u32> {
    let store = Arc::new(EmbeddingStore::new(StoreConfig {
        encoding,
        cache_capacity_rows: 256,
        ..StoreConfig::default()
    }));
    let mut model = id.build_with_store(ModelScale::Tiny, SEED, store).unwrap();
    output_bits(&mut model)
}

#[test]
fn every_model_is_bit_identical_across_thread_counts_and_encodings() {
    for id in ModelId::ALL {
        for encoding in [RowEncoding::F32, RowEncoding::F16, RowEncoding::Int8] {
            let baseline = {
                let pool = ParPool::new(1);
                with_pool(&pool, || store_bits(id, encoding))
            };
            for threads in [2usize, 8] {
                let pool = ParPool::new(threads);
                let bits = with_pool(&pool, || store_bits(id, encoding));
                assert_eq!(
                    baseline, bits,
                    "{id} {encoding:?}: {threads}-thread run diverged from 1-thread"
                );
            }
        }
    }
}

/// The three tier configurations of the DRAM/SSD store. Residency and
/// prefetch may only change latency accounting and counters — never a
/// single output bit.
const TIER_MODES: [&str; 3] = ["dram_only", "tiered", "tiered_prefetch"];

fn tier_config(mode: &str) -> Option<TierConfig> {
    if mode == "dram_only" {
        return None;
    }
    // A tiny DRAM budget forces heavy cold traffic and evictions.
    let mut tier = TierConfig::new(64);
    tier.prefetch = mode == "tiered_prefetch";
    Some(tier)
}

/// Builds `id` over an int8 store in the given tier mode and runs it
/// `runs` times on fixed inputs, returning each run's output bits. In
/// prefetch mode every run is preceded by an intent + fill pass over the
/// exact rows the query touches (what the serve runtime's stream
/// prefetcher does ahead of batch drain).
fn tier_bits(id: ModelId, mode: &str, runs: usize) -> Vec<Vec<u32>> {
    let store = Arc::new(EmbeddingStore::new(StoreConfig {
        encoding: RowEncoding::Int8,
        cache_capacity_rows: 256,
        tier: tier_config(mode),
        ..StoreConfig::default()
    }));
    let mut model = id.build_with_store(ModelScale::Tiny, SEED, store).unwrap();
    let inputs = make_inputs(&model, BATCH, 5);
    let bindings = model.store_bindings();
    (0..runs)
        .map(|_| {
            if mode == "tiered_prefetch" {
                for b in &bindings {
                    let Ok(ids) = inputs[b.input_index].ids_ref("prefetch") else {
                        continue;
                    };
                    for &id in &ids.ids {
                        let row = id % b.physical_rows;
                        if b.pin.note_prefetch_intent(row) {
                            b.pin.prefetch_row(row);
                        }
                    }
                }
            }
            let out = model.run(inputs.clone()).unwrap();
            out[0]
                .as_dense()
                .unwrap()
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        })
        .collect()
}

#[test]
fn every_model_is_bit_identical_across_tier_modes_and_threads() {
    for id in ModelId::ALL {
        let baseline = {
            let pool = ParPool::new(1);
            with_pool(&pool, || tier_bits(id, "dram_only", 1)).remove(0)
        };
        for mode in TIER_MODES {
            for threads in [1usize, 2, 8] {
                let pool = ParPool::new(threads);
                // Three runs per configuration: a cold tier, then a
                // warming one.
                for (run, bits) in with_pool(&pool, || tier_bits(id, mode, 3))
                    .into_iter()
                    .enumerate()
                {
                    assert_eq!(
                        baseline, bits,
                        "{id} {mode} run {run}: {threads}-thread output diverged from DRAM-only"
                    );
                }
            }
        }
    }
}

#[test]
fn store_backed_f32_matches_dense_build_for_every_model() {
    for id in ModelId::ALL {
        let mut dense = id.build(ModelScale::Tiny, SEED).unwrap();
        let dense_bits = output_bits(&mut dense);
        let stored_bits = store_bits(id, RowEncoding::F32);
        assert_eq!(dense_bits, stored_bits, "{id}: store-backed f32 diverged");
    }
}
