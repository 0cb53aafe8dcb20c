//! The store-facing tier engine: demand accesses, prefetch intents and
//! fills, and the counter set behind `StoreStats`' tier fields.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::clock::{ResidencyClock, Touch};
use crate::latency::{ColdReadModel, Pacing};

/// Configuration for a [`TierEngine`] (carried by the store's config as
/// `StoreConfig::tier`).
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// DRAM hot-tier capacity in rows. Rows past the budget live on the
    /// simulated SSD cold tier and pay [`TierConfig::cold_read`] on
    /// demand.
    pub dram_budget_rows: usize,
    /// Latency model for one cold-tier read.
    pub cold_read: ColdReadModel,
    /// Whether the serving runtime should run the stream prefetcher for
    /// this store. The prefetch *API* works regardless; this flag only
    /// gates the admission-time hook in `drec-serve`.
    pub prefetch: bool,
    /// Demand touches a row needs before it can be promoted into DRAM,
    /// enabling TinyLFU-style frequency admission. `1` promotes on
    /// first touch — plain CLOCK, which degenerates to LRU-class hit
    /// rates under heavy-tail traffic because one-touch tail rows keep
    /// evicting hot rows. At `2` or more, every demand access also
    /// bumps a bounded frequency sketch, and a cold row is promoted
    /// only when (a) it has at least this many lifetime touches and
    /// (b) its touch count strictly exceeds the CLOCK victim's — a
    /// colder-or-equal challenger never displaces a resident, so the
    /// resident set converges on the true frequency head instead of
    /// churning. Prefetch fills always bypass this filter: an admitted
    /// query is explicit evidence the row is about to be used.
    pub admit_after: u32,
    /// Ignored: the table-combining cache is gone. Kept only so the
    /// frozen `servebench` benchmark still compiles; drop it at the next
    /// benchmark change.
    pub combine: Option<CombineConfig>,
}

/// Former table-combining cache configuration, now an empty marker that
/// nothing reads. Kept only so the frozen `servebench` benchmark still
/// compiles; drop it at the next benchmark change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CombineConfig;

impl TierConfig {
    /// Tiering with the default cold-read model and prefetch enabled.
    pub fn new(dram_budget_rows: usize) -> TierConfig {
        TierConfig {
            dram_budget_rows,
            cold_read: ColdReadModel::default(),
            prefetch: true,
            admit_after: 1,
            combine: None,
        }
    }
}

/// What one demand access cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierAccess {
    /// The row was DRAM-resident; no cold latency charged.
    DramHit,
    /// The row was cold; `wait` was charged (and slept under
    /// [`Pacing::Sleep`]) and the row is now resident.
    ColdMiss {
        /// Latency charged to this read.
        wait: Duration,
    },
}

/// Point-in-time tier counters (all cumulative except the residency
/// gauges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Configured DRAM budget, rows.
    pub dram_budget_rows: u64,
    /// Rows currently DRAM-resident.
    pub dram_resident_rows: u64,
    /// Demand accesses that found their row DRAM-resident.
    pub dram_hits: u64,
    /// Demand accesses that paid a cold-tier read.
    pub cold_demand_reads: u64,
    /// Rows promoted into DRAM (demand + prefetch).
    pub promotions: u64,
    /// Rows evicted from DRAM.
    pub evictions: u64,
    /// Nanoseconds of cold latency charged to demand reads (on the
    /// request critical path).
    pub demand_wait_nanos: u64,
    /// Nanoseconds of cold latency charged to prefetch fills (overlapped
    /// with other work, off the critical path).
    pub prefetch_wait_nanos: u64,
    /// Prefetch intents accepted (not already resident or pending).
    pub prefetch_issued: u64,
    /// Prefetch fills that promoted a row.
    pub prefetch_fills: u64,
    /// Demand accesses served from a still-unused prefetched row — the
    /// prefetch did its job.
    pub prefetch_hits: u64,
    /// Demand accesses that found their row still *pending* — the
    /// prefetch was issued but lost the race.
    pub prefetch_late: u64,
    /// Prefetched rows evicted before any demand access used them.
    pub prefetch_wasted: u64,
    /// Prefetch fills aborted because the row was rewritten between the
    /// fill's start and its residency insert — parking the pre-update
    /// bytes as resident would have served a retired row for free.
    pub prefetch_aborted_stale: u64,
    /// Row-update invalidations applied to the tier (residency and/or
    /// pending prefetch intent dropped).
    pub invalidations: u64,
}

impl TierStats {
    /// Counter deltas since `base`; the two residency gauges keep their
    /// current values.
    pub fn since(&self, base: &TierStats) -> TierStats {
        TierStats {
            dram_budget_rows: self.dram_budget_rows,
            dram_resident_rows: self.dram_resident_rows,
            dram_hits: self.dram_hits.saturating_sub(base.dram_hits),
            cold_demand_reads: self
                .cold_demand_reads
                .saturating_sub(base.cold_demand_reads),
            promotions: self.promotions.saturating_sub(base.promotions),
            evictions: self.evictions.saturating_sub(base.evictions),
            demand_wait_nanos: self
                .demand_wait_nanos
                .saturating_sub(base.demand_wait_nanos),
            prefetch_wait_nanos: self
                .prefetch_wait_nanos
                .saturating_sub(base.prefetch_wait_nanos),
            prefetch_issued: self.prefetch_issued.saturating_sub(base.prefetch_issued),
            prefetch_fills: self.prefetch_fills.saturating_sub(base.prefetch_fills),
            prefetch_hits: self.prefetch_hits.saturating_sub(base.prefetch_hits),
            prefetch_late: self.prefetch_late.saturating_sub(base.prefetch_late),
            prefetch_wasted: self.prefetch_wasted.saturating_sub(base.prefetch_wasted),
            prefetch_aborted_stale: self
                .prefetch_aborted_stale
                .saturating_sub(base.prefetch_aborted_stale),
            invalidations: self.invalidations.saturating_sub(base.invalidations),
        }
    }

    /// Fraction of demand accesses served from DRAM (1.0 when idle —
    /// nothing went cold).
    pub fn dram_hit_rate(&self) -> f64 {
        let total = self.dram_hits + self.cold_demand_reads;
        if total == 0 {
            1.0
        } else {
            self.dram_hits as f64 / total as f64
        }
    }

    /// Fraction of would-be cold demand misses the prefetcher converted
    /// into DRAM hits: `hits / (hits + residual cold demand reads)`.
    /// 0 when neither moved.
    pub fn prefetch_conversion(&self) -> f64 {
        let total = self.prefetch_hits + self.cold_demand_reads;
        if total == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / total as f64
        }
    }
}

/// The tier engine one [`EmbeddingStore`](../drec_store) owns when
/// tiering is configured.
///
/// Thread-safe: the resident set and pending-intent set sit behind one
/// mutex each (only touched on hot-row-cache misses), counters are
/// atomics. Residency decides latency charging only — never values — so
/// concurrent interleavings may shift counters but can never change
/// model output bits.
#[derive(Debug)]
pub struct TierEngine {
    model: ColdReadModel,
    prefetch_enabled: bool,
    admit_after: u32,
    clock: Mutex<ResidencyClock>,
    /// Prefetch intents announced at admission but not yet filled.
    pending: Mutex<HashSet<u64>>,
    /// Demand-touch frequency sketch driving the
    /// [`TierConfig::admit_after`] comparative admission. Bounded: at
    /// `admission_capacity` the whole map resets (TinyLFU-style aging),
    /// which keeps it deterministic and lets the filter re-learn a
    /// shifted head.
    admission: Mutex<HashMap<u64, u32>>,
    admission_capacity: usize,
    /// Global cold-read index driving the jitter sequence.
    reads: AtomicU64,
    /// Cold reads currently in service (queue depth for the model).
    inflight: AtomicU64,
    dram_hits: AtomicU64,
    cold_demand_reads: AtomicU64,
    promotions: AtomicU64,
    demand_wait_nanos: AtomicU64,
    prefetch_wait_nanos: AtomicU64,
    prefetch_issued: AtomicU64,
    prefetch_fills: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetch_late: AtomicU64,
    prefetch_wasted: AtomicU64,
    prefetch_aborted_stale: AtomicU64,
    invalidations: AtomicU64,
}

impl TierEngine {
    /// A fresh engine for `cfg`. An empty DRAM tier: the first access to
    /// every row is a cold read (benches warm the tier explicitly).
    pub fn new(cfg: &TierConfig) -> TierEngine {
        TierEngine {
            model: cfg.cold_read,
            prefetch_enabled: cfg.prefetch,
            admit_after: cfg.admit_after.max(1),
            clock: Mutex::new(ResidencyClock::new(cfg.dram_budget_rows)),
            pending: Mutex::new(HashSet::new()),
            admission: Mutex::new(HashMap::new()),
            admission_capacity: (cfg.dram_budget_rows * 8).max(1024),
            reads: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            dram_hits: AtomicU64::new(0),
            cold_demand_reads: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            demand_wait_nanos: AtomicU64::new(0),
            prefetch_wait_nanos: AtomicU64::new(0),
            prefetch_issued: AtomicU64::new(0),
            prefetch_fills: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            prefetch_late: AtomicU64::new(0),
            prefetch_wasted: AtomicU64::new(0),
            prefetch_aborted_stale: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Whether the serving runtime should prefetch for this store.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch_enabled
    }

    fn lock_clock(&self) -> std::sync::MutexGuard<'_, ResidencyClock> {
        drec_sync::lock_recover(&self.clock)
    }

    fn lock_pending(&self) -> std::sync::MutexGuard<'_, HashSet<u64>> {
        drec_sync::lock_recover(&self.pending)
    }

    fn lock_admission(&self) -> std::sync::MutexGuard<'_, HashMap<u64, u32>> {
        drec_sync::lock_recover(&self.admission)
    }

    /// Bumps `key`'s demand-touch frequency (no-op at `admit_after <=
    /// 1`). The sketch resets wholesale at `admission_capacity`, so the
    /// filter ages instead of growing without bound.
    fn note_touch(&self, key: u64) {
        if self.admit_after <= 1 {
            return;
        }
        let mut counts = self.lock_admission();
        let count = counts.entry(key).or_insert(0);
        *count = count.saturating_add(1);
        if counts.len() >= self.admission_capacity {
            counts.clear();
        }
    }

    /// Promotes `key` after a cold demand read, subject to the
    /// frequency-admission filter: below the `admit_after` touch
    /// threshold nothing happens, and at capacity the challenger must
    /// match the CLOCK victim's touch count to displace it.
    fn promote_demand(&self, key: u64) {
        let mut clock = self.lock_clock();
        if self.admit_after > 1 {
            let counts = self.lock_admission();
            let challenger = counts.get(&key).copied().unwrap_or(0);
            if challenger < self.admit_after {
                return;
            }
            if let Some(victim) = clock.victim_key() {
                // Strictly greater: a tie keeps the resident row, so
                // equal-count boundary rows don't thrash each other.
                if challenger <= counts.get(&victim).copied().unwrap_or(0) {
                    return;
                }
            }
        }
        let inserted = clock.insert(key, false);
        drop(clock);
        self.promotions.fetch_add(1, Ordering::Relaxed);
        if inserted.evicted_prefetched_unused {
            self.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Computes, charges, and (under [`Pacing::Sleep`]) serves one cold
    /// read's latency, returning the charged duration.
    fn charge_cold_read(&self, wait_counter: &AtomicU64) -> Duration {
        let index = self.reads.fetch_add(1, Ordering::Relaxed);
        let depth = self.inflight.fetch_add(1, Ordering::Relaxed);
        let wait = self.model.delay_for(index, depth);
        wait_counter.fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
        if self.model.pacing == Pacing::Sleep && !wait.is_zero() {
            std::thread::sleep(wait);
        }
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        wait
    }

    /// One demand access to `key` (called by the store on every
    /// hot-row-cache miss). Resident rows are free; cold rows charge the
    /// latency model and get promoted.
    pub fn demand_access(&self, key: u64) -> TierAccess {
        self.note_touch(key);
        {
            let mut clock = self.lock_clock();
            if let Touch::Resident {
                was_prefetched_unused,
            } = clock.touch(key)
            {
                drop(clock);
                self.dram_hits.fetch_add(1, Ordering::Relaxed);
                if was_prefetched_unused {
                    self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
                }
                return TierAccess::DramHit;
            }
        }
        self.cold_demand_reads.fetch_add(1, Ordering::Relaxed);
        if self.lock_pending().remove(&key) {
            // A prefetch was issued but hasn't landed: the demand read
            // overtakes it and pays the cold latency itself.
            self.prefetch_late.fetch_add(1, Ordering::Relaxed);
        }
        let wait = self.charge_cold_read(&self.demand_wait_nanos);
        self.promote_demand(key);
        TierAccess::ColdMiss { wait }
    }

    /// Registers a prefetch intent for `key` at admission time. Returns
    /// `true` when a fill should be issued (the key is neither resident
    /// nor already pending).
    pub fn note_intent(&self, key: u64) -> bool {
        if self.lock_clock().contains(key) {
            return false;
        }
        if !self.lock_pending().insert(key) {
            return false;
        }
        self.prefetch_issued.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Completes a prefetch: pays the cold latency off the critical path
    /// and promotes the row flagged prefetched-unused. No-op when the
    /// row went resident in the meantime (a demand read won the race).
    pub fn prefetch_fill(&self, key: u64) {
        self.prefetch_fill_if(key, || true);
    }

    /// [`TierEngine::prefetch_fill`] with a staleness re-verify: `verify`
    /// runs *under the residency lock* immediately before the insert,
    /// and a `false` abandons the fill (counted `prefetch_aborted_stale`)
    /// instead of parking the row.
    ///
    /// The store passes a closure comparing the owning table's write
    /// stamp against the value captured when the fill began. Because the
    /// update path bumps the stamp before calling
    /// [`TierEngine::invalidate`] — which takes the same lock — the two
    /// linearize: either the fill sees the bumped stamp and aborts, or
    /// it inserts first and the update's invalidate removes it. A stale
    /// pre-update fill can never survive as resident.
    pub fn prefetch_fill_if(&self, key: u64, verify: impl FnOnce() -> bool) {
        let was_pending = self.lock_pending().remove(&key);
        if self.lock_clock().contains(key) {
            return;
        }
        if !was_pending {
            // Demand already consumed the intent (counted late) and the
            // row was since evicted again; refetch it anyway.
            self.prefetch_issued.fetch_add(1, Ordering::Relaxed);
        }
        self.charge_cold_read(&self.prefetch_wait_nanos);
        let mut clock = self.lock_clock();
        if !verify() {
            drop(clock);
            self.prefetch_aborted_stale.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let inserted = clock.insert(key, true);
        drop(clock);
        self.promotions.fetch_add(1, Ordering::Relaxed);
        self.prefetch_fills.fetch_add(1, Ordering::Relaxed);
        if inserted.evicted_prefetched_unused {
            self.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops `key` from the tier on a row update: the DRAM-resident copy
    /// (if any) is superseded, and a pending prefetch intent would fill
    /// from a retired view. Returns whether anything was dropped.
    pub fn invalidate(&self, key: u64) -> bool {
        let pending = self.lock_pending().remove(&key);
        let resident = self.lock_clock().remove(key);
        if pending || resident {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        pending || resident
    }

    /// Whether `key` is currently DRAM-resident (no side effects).
    pub fn is_resident(&self, key: u64) -> bool {
        self.lock_clock().contains(key)
    }

    /// Counts resident rows whose key satisfies `pred` — the reporting
    /// path for per-table/per-model residency. O(resident).
    pub fn count_resident(&self, pred: impl FnMut(u64) -> bool) -> usize {
        self.lock_clock().count_resident(pred)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TierStats {
        let (budget, resident, evictions) = {
            let clock = self.lock_clock();
            (
                clock.budget() as u64,
                clock.resident() as u64,
                clock.evictions(),
            )
        };
        TierStats {
            dram_budget_rows: budget,
            dram_resident_rows: resident,
            dram_hits: self.dram_hits.load(Ordering::Relaxed),
            cold_demand_reads: self.cold_demand_reads.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            evictions,
            demand_wait_nanos: self.demand_wait_nanos.load(Ordering::Relaxed),
            prefetch_wait_nanos: self.prefetch_wait_nanos.load(Ordering::Relaxed),
            prefetch_issued: self.prefetch_issued.load(Ordering::Relaxed),
            prefetch_fills: self.prefetch_fills.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            prefetch_late: self.prefetch_late.load(Ordering::Relaxed),
            prefetch_wasted: self.prefetch_wasted.load(Ordering::Relaxed),
            prefetch_aborted_stale: self.prefetch_aborted_stale.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charge_only(budget: usize) -> TierEngine {
        TierEngine::new(&TierConfig {
            cold_read: ColdReadModel {
                base: Duration::from_micros(10),
                jitter: Duration::from_micros(1),
                per_inflight: Duration::ZERO,
                seed: 3,
                pacing: Pacing::Charge,
            },
            ..TierConfig::new(budget)
        })
    }

    #[test]
    fn cold_then_hot_and_wait_is_charged() {
        let t = charge_only(4);
        let TierAccess::ColdMiss { wait } = t.demand_access(7) else {
            panic!("first access must be cold");
        };
        assert!(wait >= Duration::from_micros(10));
        assert_eq!(t.demand_access(7), TierAccess::DramHit);
        let s = t.stats();
        assert_eq!(s.cold_demand_reads, 1);
        assert_eq!(s.dram_hits, 1);
        assert_eq!(s.demand_wait_nanos, wait.as_nanos() as u64);
        assert_eq!(s.prefetch_wait_nanos, 0);
        assert!((s.dram_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prefetch_fill_makes_demand_free_and_counts_a_hit() {
        let t = charge_only(4);
        assert!(t.note_intent(9));
        assert!(!t.note_intent(9), "duplicate intent rejected");
        t.prefetch_fill(9);
        assert_eq!(t.demand_access(9), TierAccess::DramHit);
        let s = t.stats();
        assert_eq!(s.prefetch_issued, 1);
        assert_eq!(s.prefetch_fills, 1);
        assert_eq!(s.prefetch_hits, 1);
        assert_eq!(s.cold_demand_reads, 0);
        assert_eq!(s.demand_wait_nanos, 0);
        assert!(s.prefetch_wait_nanos > 0, "fill latency charged off-path");
        assert!((s.prefetch_conversion() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn late_prefetch_is_counted_and_demand_pays() {
        let t = charge_only(4);
        assert!(t.note_intent(5));
        // Demand arrives before the fill.
        assert!(matches!(t.demand_access(5), TierAccess::ColdMiss { .. }));
        t.prefetch_fill(5); // resident now; the fill is a no-op
        let s = t.stats();
        assert_eq!(s.prefetch_late, 1);
        assert_eq!(s.cold_demand_reads, 1);
        assert_eq!(s.prefetch_fills, 0);
    }

    #[test]
    fn wasted_prefetch_is_counted_on_eviction() {
        let t = charge_only(1);
        assert!(t.note_intent(1));
        t.prefetch_fill(1);
        // Budget 1: promoting key 2 evicts the never-used prefetched 1.
        assert!(matches!(t.demand_access(2), TierAccess::ColdMiss { .. }));
        // One sweep clears 1's bit, the next insert takes it.
        assert!(matches!(t.demand_access(3), TierAccess::ColdMiss { .. }));
        assert!(t.stats().prefetch_wasted >= 1, "{:?}", t.stats());
    }

    #[test]
    fn admission_filter_needs_repeat_touches_but_prefetch_bypasses() {
        let mut cfg = TierConfig::new(4);
        cfg.cold_read = ColdReadModel {
            pacing: Pacing::Charge,
            ..ColdReadModel::default()
        };
        cfg.admit_after = 2;
        let t = TierEngine::new(&cfg);
        // First demand touch: cold, below the threshold — not promoted.
        assert!(matches!(t.demand_access(7), TierAccess::ColdMiss { .. }));
        assert!(!t.is_resident(7), "one touch must not admit");
        // Second touch crosses the threshold: still cold, now promoted.
        assert!(matches!(t.demand_access(7), TierAccess::ColdMiss { .. }));
        assert!(t.is_resident(7));
        assert_eq!(t.demand_access(7), TierAccess::DramHit);
        // A prefetch fill skips the filter entirely.
        assert!(t.note_intent(9));
        t.prefetch_fill(9);
        assert!(t.is_resident(9), "prefetch fill bypasses admission");
        let s = t.stats();
        assert_eq!(s.cold_demand_reads, 2);
        assert_eq!(s.promotions, 2);
    }

    #[test]
    fn invalidate_drops_residency_and_pending_intent() {
        let t = charge_only(4);
        t.demand_access(7); // resident
        assert!(t.note_intent(8)); // pending
        assert!(t.invalidate(7));
        assert!(t.invalidate(8));
        assert!(!t.invalidate(9), "unknown key is a no-op");
        assert!(!t.is_resident(7));
        // A filled intent for 8 was dropped: a new intent is accepted.
        assert!(t.note_intent(8));
        assert_eq!(t.stats().invalidations, 2);
    }

    #[test]
    fn stale_fill_aborts_instead_of_parking_retired_bytes() {
        // The satellite-2 interleaving, driven deterministically: a fill
        // captures the table's write stamp, the row is updated (stamp
        // bump + invalidate) mid-fill, and the fill's verify must abort.
        let t = charge_only(4);
        let stamp = AtomicU64::new(0);
        assert!(t.note_intent(5));
        let observed = stamp.load(Ordering::Acquire); // fill begins
        stamp.fetch_add(1, Ordering::AcqRel); // update lands mid-fill
        t.invalidate(5);
        t.prefetch_fill_if(5, || stamp.load(Ordering::Acquire) == observed);
        assert!(
            !t.is_resident(5),
            "a fill that raced a row update parked stale bytes as resident"
        );
        let s = t.stats();
        assert_eq!(s.prefetch_aborted_stale, 1);
        assert_eq!(s.prefetch_fills, 0);
        // The same fill with an unchanged stamp parks normally.
        assert!(t.note_intent(5));
        let observed = stamp.load(Ordering::Acquire);
        t.prefetch_fill_if(5, || stamp.load(Ordering::Acquire) == observed);
        assert!(t.is_resident(5));
        assert_eq!(t.stats().prefetch_fills, 1);
    }

    #[test]
    fn residency_gauges_and_predicate_counting() {
        let t = charge_only(8);
        for key in [1u64, 2, (1 << 32) | 3] {
            t.demand_access(key);
        }
        let s = t.stats();
        assert_eq!(s.dram_budget_rows, 8);
        assert_eq!(s.dram_resident_rows, 3);
        assert_eq!(t.count_resident(|k| (k >> 32) == 0), 2);
        assert_eq!(t.count_resident(|k| (k >> 32) == 1), 1);
        assert!(t.is_resident(2) && !t.is_resident(4));
    }

    #[test]
    fn stats_since_subtracts_counters_keeps_gauges() {
        let t = charge_only(8);
        t.demand_access(1);
        let base = t.stats();
        t.demand_access(1);
        t.demand_access(2);
        let d = t.stats().since(&base);
        assert_eq!(d.dram_hits, 1);
        assert_eq!(d.cold_demand_reads, 1);
        assert_eq!(d.dram_resident_rows, 2, "gauge keeps current value");
    }
}
