//! SIMD/scalar parity for store-side decode paths.
//!
//! The store's `sum_row`/`read_row` go through the dispatched kernels in
//! `drec_tensor::simd`; these tests recompute every lookup with the
//! `simd::scalar` oracles over independently re-encoded rows and require
//! bitwise equality, whatever backend the process resolved. They also pin
//! the decode-counter bookkeeping: counters land on the side matching the
//! active backend, and hot-row-cache hits move neither counter.

use std::sync::Arc;

use drec_store::{f32_to_f16_bits, quantize_row, EmbeddingStore, RowEncoding, StoreConfig};
use drec_tensor::simd::{self, KernelBackend};

/// Deterministic pseudo-random row data with awkward values mixed in.
fn table_data(rows: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..rows * dim)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match i % 17 {
                0 => 0.0,
                1 => -0.0,
                2 => 1e-30,
                _ => ((state >> 40) as f32 / (1 << 24) as f32) * 4.0 - 2.0,
            }
        })
        .collect()
}

fn store_with(encoding: RowEncoding, cache_rows: usize) -> EmbeddingStore {
    EmbeddingStore::new(StoreConfig {
        encoding,
        shards_per_table: 4,
        cache_capacity_rows: cache_rows,
        tier: None,
    })
}

/// Oracle: re-encode row `r` of `data` exactly as the store does, then decode
/// with the pure-scalar kernels.
fn oracle_sum(encoding: RowEncoding, data: &[f32], dim: usize, r: usize, acc: &mut [f32]) {
    let row = &data[r * dim..(r + 1) * dim];
    match encoding {
        RowEncoding::F32 => simd::scalar::sum_f32_into(row, acc),
        RowEncoding::F16 => {
            let bits: Vec<u16> = row.iter().map(|&x| f32_to_f16_bits(x)).collect();
            simd::scalar::sum_f16_into(&bits, acc);
        }
        RowEncoding::Int8 => {
            let mut q = vec![0u8; dim];
            let (scale, bias) = quantize_row(row, &mut q);
            simd::scalar::sum_i8_into(&q, scale, bias, acc);
        }
    }
}

#[test]
fn store_lookups_match_scalar_oracle_bitwise_for_every_encoding() {
    // Dims cover SIMD tails: below one lane, exactly one/two lanes, ragged.
    for &dim in &[1usize, 7, 8, 9, 16, 33] {
        let rows = 64;
        let data = table_data(rows, dim, dim as u64 + 3);
        for encoding in [RowEncoding::F32, RowEncoding::F16, RowEncoding::Int8] {
            let store = Arc::new(store_with(encoding, 0));
            let handle = store.register(1, 0, rows, dim, &data).unwrap();
            let table = store.pin(handle);
            for r in 0..rows {
                let mut got = vec![0.25f32; dim];
                let mut want = vec![0.25f32; dim];
                table.sum_row(r as u32, &mut got);
                oracle_sum(encoding, &data, dim, r, &mut want);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{encoding:?} dim {dim} row {r} col {i}: {g} vs {w}"
                    );
                }
            }
        }
    }
}

#[test]
fn decode_counters_land_on_the_active_backend_side() {
    for encoding in [RowEncoding::F32, RowEncoding::F16, RowEncoding::Int8] {
        let store = Arc::new(store_with(encoding, 0));
        let handle = store
            .register(2, 0, 32, 16, &table_data(32, 16, 11))
            .unwrap();
        let table = store.pin(handle);
        let base = store.stats();
        let mut acc = vec![0.0f32; 16];
        for r in 0..32u32 {
            table.sum_row(r, &mut acc);
        }
        let delta = store.stats().since(&base);
        match simd::active_backend() {
            KernelBackend::Avx2Fma => {
                assert_eq!(delta.decode_vector, 32, "{encoding:?}");
                assert_eq!(delta.decode_scalar, 0, "{encoding:?}");
            }
            KernelBackend::Scalar => {
                assert_eq!(delta.decode_vector, 0, "{encoding:?}");
                assert_eq!(delta.decode_scalar, 32, "{encoding:?}");
            }
        }
    }
}

#[test]
fn cache_hits_are_not_decodes() {
    // Cache large enough to hold the whole table: after one cold pass every
    // further lookup is a hit and must move neither decode counter.
    let store = Arc::new(store_with(RowEncoding::Int8, 1024));
    let handle = store.register(3, 0, 16, 8, &table_data(16, 8, 7)).unwrap();
    let table = store.pin(handle);
    let mut acc = vec![0.0f32; 8];
    for r in 0..16u32 {
        table.sum_row(r, &mut acc); // cold: 16 decodes, one per row
    }
    let warm_base = store.stats();
    assert_eq!(
        warm_base.decode_vector + warm_base.decode_scalar,
        16,
        "cold pass decodes each row exactly once"
    );
    for _ in 0..4 {
        for r in 0..16u32 {
            table.sum_row(r, &mut acc);
        }
    }
    let mut dst = vec![0.0f32; 8];
    table.read_row(5, &mut dst);
    let delta = store.stats().since(&warm_base);
    assert_eq!(
        delta.decode_vector + delta.decode_scalar,
        0,
        "warm hits decoded again: {delta:?}"
    );
    assert_eq!(delta.cache_hits, 4 * 16 + 1);
}

#[test]
fn force_scalar_env_is_honored() {
    // The backend is resolved once per process, so this test asserts
    // whichever leg it runs under: CI runs the suite twice, with and
    // without DREC_FORCE_SCALAR=1.
    let forced = std::env::var("DREC_FORCE_SCALAR")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false);
    if forced {
        assert_eq!(simd::active_backend(), KernelBackend::Scalar);
        assert_eq!(simd::backend_label(), "scalar");
    }
    #[cfg(target_arch = "x86_64")]
    if !forced && std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        assert_eq!(simd::active_backend(), KernelBackend::Avx2Fma);
    }
}
