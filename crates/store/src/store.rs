//! The embedding parameter store: handle-based table registry, row-range
//! shards with per-shard interior locks, and the hot-row cache.

use std::collections::HashMap;
use std::sync::Arc;

use drec_faultsim::{FaultHook, ReadFault, UpdateFault};
use drec_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use drec_sync::{CachePadded, EpochGc, EpochGuard, Mutex, RwLock};
use drec_tensor::simd::KernelPath;
use drec_tier::{TierConfig, TierEngine};

use crate::cache::HotRowCache;
use crate::encoding::{RowData, RowEncoding};

/// Lock shards inside the hot-row cache.
const CACHE_SHARDS: usize = 16;

/// Configuration for an [`EmbeddingStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// How rows are stored resident.
    pub encoding: RowEncoding,
    /// Row-range shards per table (each behind its own lock).
    pub shards_per_table: usize,
    /// Hot-row cache capacity in rows (0 disables the cache). The cache
    /// is LRU within each set.
    pub cache_capacity_rows: usize,
    /// DRAM/SSD tiering (see [`drec_tier`]); `None` keeps the whole
    /// store DRAM-resident. Residency only decides latency charging and
    /// counters — values always decode from the same encoded shards, so
    /// outputs are bit-identical with tiering on or off.
    pub tier: Option<TierConfig>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            encoding: RowEncoding::F32,
            shards_per_table: 8,
            cache_capacity_rows: 0,
            tier: None,
        }
    }
}

/// Errors from store registration and row access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A table must have at least one row and one column.
    EmptyTable {
        /// Requested row count.
        rows: usize,
        /// Requested row width.
        dim: usize,
    },
    /// The initial data slice doesn't match `rows * dim`.
    DataSizeMismatch {
        /// `rows * dim`.
        expected: usize,
        /// `data.len()` as provided.
        actual: usize,
    },
    /// A `(namespace, ordinal)` pair was re-registered with a different
    /// shape than the existing table.
    ShapeMismatch {
        /// Registration namespace.
        namespace: u64,
        /// Table ordinal within the namespace.
        ordinal: u32,
        /// Shape already registered, as `(rows, dim)`.
        existing: (usize, usize),
        /// Shape requested now, as `(rows, dim)`.
        requested: (usize, usize),
    },
    /// A row index past the end of the table.
    RowOutOfRange {
        /// Offending row index.
        row: u32,
        /// Table row count.
        rows: usize,
    },
    /// A [`TableHandle`] that does not name a registered table (stale or
    /// fabricated).
    UnknownTable {
        /// The offending handle's slot.
        handle: usize,
        /// Tables currently registered.
        tables: usize,
    },
    /// An update (or lookup) referenced a `(namespace, ordinal)` pair
    /// with no registered table.
    TableNotRegistered {
        /// Requested namespace.
        namespace: u64,
        /// Requested ordinal.
        ordinal: u32,
    },
    /// An update batch's target version is not `current + 1`: a replayed
    /// (duplicate) batch when `target <= current`, a gap otherwise.
    /// Either way the batch is rejected whole; the published state is
    /// untouched.
    VersionConflict {
        /// Update namespace.
        namespace: u64,
        /// Version currently published for the namespace.
        current: u64,
        /// Version the rejected batch targeted.
        target: u64,
    },
    /// An injected crash fired mid-batch: every row the batch had
    /// already rewritten was rolled back to its pre-batch value and the
    /// namespace version was left unchanged — the failed update is
    /// invisible.
    UpdateAborted {
        /// Update namespace.
        namespace: u64,
        /// Version the aborted batch targeted.
        target: u64,
        /// Rows that had been applied and were rolled back.
        rows_rolled_back: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::EmptyTable { rows, dim } => {
                write!(f, "table shape {rows}x{dim} has a zero dimension")
            }
            StoreError::DataSizeMismatch { expected, actual } => {
                write!(f, "table data has {actual} elements, expected {expected}")
            }
            StoreError::ShapeMismatch {
                namespace,
                ordinal,
                existing,
                requested,
            } => write!(
                f,
                "table ({namespace:#x}, {ordinal}) already registered as \
                 {}x{}, requested {}x{}",
                existing.0, existing.1, requested.0, requested.1
            ),
            StoreError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range for table of {rows} rows")
            }
            StoreError::UnknownTable { handle, tables } => {
                write!(f, "handle {handle} does not name one of {tables} tables")
            }
            StoreError::TableNotRegistered { namespace, ordinal } => {
                write!(f, "no table registered for ({namespace:#x}, {ordinal})")
            }
            StoreError::VersionConflict {
                namespace,
                current,
                target,
            } => write!(
                f,
                "update for namespace {namespace:#x} targets v{target} but \
                 v{current} is published (want v{})",
                current + 1
            ),
            StoreError::UpdateAborted {
                namespace,
                target,
                rows_rolled_back,
            } => write!(
                f,
                "update to v{target} for namespace {namespace:#x} aborted; \
                 {rows_rolled_back} rows rolled back"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// One row rewrite inside an [`UpdateBatch`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowDelta {
    /// Table ordinal within the batch's namespace.
    pub ordinal: u32,
    /// Row to rewrite.
    pub row: u32,
    /// New row values (length must equal the table's `dim`).
    pub values: Vec<f32>,
}

/// A versioned batch of row rewrites for one namespace. Batches apply
/// atomically: either every delta lands and the namespace version
/// advances to `target_version`, or (on validation failure, version
/// conflict, or injected crash) nothing is visible afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateBatch {
    /// Namespace whose tables the deltas target.
    pub namespace: u64,
    /// Version this batch publishes; must be exactly one past the
    /// namespace's current version.
    pub target_version: u64,
    /// The row rewrites.
    pub deltas: Vec<RowDelta>,
}

/// What [`EmbeddingStore::apply_update`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateReport {
    /// Rows rewritten by the batch.
    pub rows_applied: usize,
    /// The version now published for the namespace.
    pub published_version: u64,
}

/// Opaque handle to a registered table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableHandle(pub(crate) usize);

/// One table: row-range shards, each independently lockable so a row
/// update never stalls readers of other shards.
#[derive(Debug)]
struct StoredTable {
    rows: usize,
    dim: usize,
    rows_per_shard: usize,
    shards: Vec<RwLock<RowData>>,
    /// Snapshot version last published for this table (batches advance
    /// it; a freshly registered table is v0).
    version: AtomicU64,
    /// Bumped on every row write, *before* the shard lock is taken. The
    /// prefetcher captures it when a fill starts and re-verifies under
    /// the residency lock, so a fill racing an update can never park
    /// pre-update state as resident (see `PinnedTable::prefetch_row`).
    write_stamp: AtomicU64,
}

impl StoredTable {
    fn new(
        encoding: RowEncoding,
        rows: usize,
        dim: usize,
        data: &[f32],
        shard_count: usize,
    ) -> Self {
        let shard_count = shard_count.max(1).min(rows);
        let rows_per_shard = rows.div_ceil(shard_count);
        // div_ceil can leave trailing shards empty; drop them.
        let shard_count = rows.div_ceil(rows_per_shard);
        let shards = (0..shard_count)
            .map(|s| {
                let start = s * rows_per_shard;
                let end = ((s + 1) * rows_per_shard).min(rows);
                RwLock::new(RowData::encode(
                    encoding,
                    &data[start * dim..end * dim],
                    dim,
                ))
            })
            .collect();
        StoredTable {
            rows,
            dim,
            rows_per_shard,
            shards,
            version: AtomicU64::new(0),
            write_stamp: AtomicU64::new(0),
        }
    }

    /// (shard index, row offset within shard) for a validated row.
    fn locate(&self, row: u32) -> (usize, usize) {
        let row = row as usize;
        (row / self.rows_per_shard, row % self.rows_per_shard)
    }

    fn sum_into(&self, row: u32, acc: &mut [f32]) -> KernelPath {
        let (s, r) = self.locate(row);
        self.shards[s].read().sum_into(r, self.dim, acc)
    }

    fn read_into(&self, row: u32, dst: &mut [f32]) -> KernelPath {
        let (s, r) = self.locate(row);
        self.shards[s].read().decode_into(r, self.dim, dst)
    }

    fn write_row(&self, row: u32, values: &[f32]) {
        self.rewrite(row, |data, r, dim| data.write_row(r, dim, values));
    }

    /// The row's stored bytes, for an update's undo log.
    fn row_copy(&self, row: u32) -> RowData {
        let (s, r) = self.locate(row);
        self.shards[s].read().row_copy(r, self.dim)
    }

    /// Puts back bytes taken by [`StoredTable::row_copy`] verbatim.
    /// Re-encoding the decoded values instead is not exact: int8
    /// quantization of a decoded int8 row can land on different bytes.
    fn restore_row(&self, row: u32, old: &RowData) {
        self.rewrite(row, |data, r, dim| data.restore_row(r, dim, old));
    }

    /// Rewrites one row under its shard's write lock, then bumps the
    /// write stamp.
    fn rewrite(&self, row: u32, write: impl FnOnce(&mut RowData, usize, usize)) {
        // Write first, stamp after. The order matters: a prefetch fill
        // captures the stamp, reads the row, and re-verifies the stamp
        // under the residency lock. Bumping *before* the write would let
        // a fill capture the post-bump stamp, read the pre-update bytes,
        // and pass its verify — parking stale state that the caller's
        // subsequent invalidation cannot reach if it runs before the
        // fill's insert (an interleaving the loom model
        // `prefetch_fill_verify_never_parks_stale_bytes` exhibits).
        // Write-then-bump closes it: a fill that read stale bytes either
        // sees the bump at verify time and aborts, or verified before
        // the bump — in which case the caller's invalidation (ordered
        // after this bump, under the same residency lock) removes it.
        let (s, r) = self.locate(row);
        write(&mut self.shards[s].write(), r, self.dim);
        self.write_stamp.fetch_add(1, Ordering::Release);
    }

    fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.read().resident_bytes()).sum()
    }
}

/// The embedding parameter store. One instance is shared by every serving
/// worker; tables are registered once per `(namespace, ordinal)` and
/// deduplicated across workers, so N replicas of a model hold one copy of
/// the embedding parameters instead of N.
#[derive(Debug)]
pub struct EmbeddingStore {
    cfg: StoreConfig,
    tables: RwLock<Vec<Arc<StoredTable>>>,
    index: Mutex<HashMap<(u64, u32), usize>>,
    cache: HotRowCache,
    /// Hot counters live on their own cache lines: every worker bumps
    /// `lookups` on every embedding access, and unpadded neighbors would
    /// bounce a shared line between cores (see `drec_sync::CachePadded`).
    lookups: CachePadded<AtomicU64>,
    /// Cold-shard decodes served by the vector (AVX2/FMA) kernels.
    /// Hot-row-cache hits add *decoded* rows and bypass both counters —
    /// a hit is not a decode, and counting it as one would make the
    /// kernel-backend mix look busier than the kernels are.
    decode_vector: CachePadded<AtomicU64>,
    /// Cold-shard decodes served by the portable scalar kernels.
    decode_scalar: CachePadded<AtomicU64>,
    faults: FaultHook,
    /// Degraded mode: serve only from the hot-row cache, skipping cold
    /// shards (see [`EmbeddingStore::set_cache_only`]).
    cache_only: AtomicBool,
    cache_only_skips: AtomicU64,
    /// DRAM/SSD residency model (`StoreConfig::tier`).
    tier: Option<TierEngine>,
    /// Epoch cell the live-update protocol pins readers with. Readers
    /// pin once per coalesced batch; `apply_update` synchronizes against
    /// it before retiring superseded rows (DESIGN.md §14).
    epoch: EpochGc,
    /// Update batches applied and published.
    update_batches_applied: AtomicU64,
    /// Rows rewritten by applied update batches.
    update_rows_applied: AtomicU64,
    /// Superseded rows retired (cache/tier re-invalidated after
    /// the post-publish synchronize).
    update_rows_retired: AtomicU64,
    /// Update batches rolled back whole after an injected crash.
    update_rollbacks: AtomicU64,
    /// Duplicate (already-published) update batches rejected.
    update_duplicates_rejected: AtomicU64,
    /// Injected publish delays honored inside `apply_update`.
    update_publish_delays: AtomicU64,
}

impl EmbeddingStore {
    /// An empty store with the given configuration.
    pub fn new(cfg: StoreConfig) -> EmbeddingStore {
        Self::with_faults(cfg, FaultHook::disabled())
    }

    /// Like [`EmbeddingStore::new`] but threading a fault-injection hook
    /// through the row-read path: poisoned reads panic (as a genuinely
    /// poisoned shard lock would) and delayed reads stall — both before
    /// the shard lock is touched, so the store's real state stays
    /// consistent. With [`FaultHook::disabled`] this is identical to
    /// [`EmbeddingStore::new`].
    pub fn with_faults(cfg: StoreConfig, faults: FaultHook) -> EmbeddingStore {
        let cache = HotRowCache::new(cfg.cache_capacity_rows, CACHE_SHARDS);
        let tier = cfg.tier.as_ref().map(TierEngine::new);
        EmbeddingStore {
            cfg,
            tables: RwLock::new(Vec::new()),
            index: Mutex::new(HashMap::new()),
            cache,
            lookups: CachePadded::new(AtomicU64::new(0)),
            decode_vector: CachePadded::new(AtomicU64::new(0)),
            decode_scalar: CachePadded::new(AtomicU64::new(0)),
            faults,
            cache_only: AtomicBool::new(false),
            cache_only_skips: AtomicU64::new(0),
            tier,
            epoch: EpochGc::new(),
            update_batches_applied: AtomicU64::new(0),
            update_rows_applied: AtomicU64::new(0),
            update_rows_retired: AtomicU64::new(0),
            update_rollbacks: AtomicU64::new(0),
            update_duplicates_rejected: AtomicU64::new(0),
            update_publish_delays: AtomicU64::new(0),
        }
    }

    /// The configuration this store was built with.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Enters or leaves cache-only degraded mode. While degraded, row
    /// lookups that miss the hot-row cache *skip* the cold shard instead
    /// of decoding it: pooled sums simply omit the row's contribution
    /// and copies return zeros. Output quality degrades (every skip is
    /// counted in [`StoreStats::cache_only_skips`]) but lookup latency
    /// collapses to the cache hit path — the overload ladder uses this
    /// as the last step before shedding. No-op when the cache is
    /// disabled (there would be nothing left to serve from).
    pub fn set_cache_only(&self, degraded: bool) {
        if self.cache.enabled() {
            self.cache_only.store(degraded, Ordering::Relaxed);
        }
    }

    /// Whether the store is in cache-only degraded mode.
    pub fn cache_only(&self) -> bool {
        self.cache_only.load(Ordering::Relaxed)
    }

    /// Registers a `rows × dim` table under `(namespace, ordinal)`,
    /// encoding `data` into the store's row encoding. If the pair is
    /// already registered with the same shape the existing table's handle
    /// is returned and `data` is ignored — this is the dedup path that
    /// lets N identically seeded worker models share one parameter copy.
    ///
    /// # Errors
    ///
    /// [`StoreError::EmptyTable`], [`StoreError::DataSizeMismatch`], or
    /// [`StoreError::ShapeMismatch`] on a dedup hit with a different
    /// shape.
    pub fn register(
        &self,
        namespace: u64,
        ordinal: u32,
        rows: usize,
        dim: usize,
        data: &[f32],
    ) -> Result<TableHandle, StoreError> {
        if rows == 0 || dim == 0 {
            return Err(StoreError::EmptyTable { rows, dim });
        }
        if data.len() != rows * dim {
            return Err(StoreError::DataSizeMismatch {
                expected: rows * dim,
                actual: data.len(),
            });
        }
        // Hold the index lock across check-and-insert so two workers
        // registering the same table race to one winner. Poisoned locks
        // are recovered (not propagated): registration must keep working
        // after a worker panic so the supervisor can rebuild engines.
        let mut index = self.index.lock();
        if let Some(&slot) = index.get(&(namespace, ordinal)) {
            let tables = self.tables.read();
            let existing = &tables[slot];
            if existing.rows != rows || existing.dim != dim {
                return Err(StoreError::ShapeMismatch {
                    namespace,
                    ordinal,
                    existing: (existing.rows, existing.dim),
                    requested: (rows, dim),
                });
            }
            return Ok(TableHandle(slot));
        }
        let table = Arc::new(StoredTable::new(
            self.cfg.encoding,
            rows,
            dim,
            data,
            self.cfg.shards_per_table,
        ));
        let mut tables = self.tables.write();
        let slot = tables.len();
        tables.push(table);
        index.insert((namespace, ordinal), slot);
        Ok(TableHandle(slot))
    }

    /// A cheap, cloneable accessor pinning `handle`'s table so lookups
    /// skip the registry lock entirely.
    ///
    /// # Panics
    ///
    /// On a handle that does not name a registered table. Fallible
    /// callers (anything fed externally supplied handles) use
    /// [`EmbeddingStore::try_pin`] instead.
    pub fn pin(self: &Arc<Self>, handle: TableHandle) -> PinnedTable {
        self.try_pin(handle).unwrap_or_else(|e| panic!("pin: {e}"))
    }

    /// Fallible [`EmbeddingStore::pin`]: a typed
    /// [`StoreError::UnknownTable`] instead of a panic when `handle`
    /// does not name a registered table.
    pub fn try_pin(self: &Arc<Self>, handle: TableHandle) -> Result<PinnedTable, StoreError> {
        let tables = self.tables.read();
        let table = tables
            .get(handle.0)
            .cloned()
            .ok_or(StoreError::UnknownTable {
                handle: handle.0,
                tables: tables.len(),
            })?;
        drop(tables);
        Ok(PinnedTable {
            store: Arc::clone(self),
            table,
            handle,
        })
    }

    /// Resolves a `(namespace, ordinal)` pair to its handle, or a typed
    /// [`StoreError::TableNotRegistered`].
    pub fn lookup(&self, namespace: u64, ordinal: u32) -> Result<TableHandle, StoreError> {
        self.index
            .lock()
            .get(&(namespace, ordinal))
            .map(|&slot| TableHandle(slot))
            .ok_or(StoreError::TableNotRegistered { namespace, ordinal })
    }

    /// Pins the calling thread into the current update epoch. Readers
    /// (the serving engines) hold the guard across one coalesced batch;
    /// [`EmbeddingStore::apply_update`] waits out every pinned reader
    /// before retiring superseded rows. Never blocks.
    ///
    /// A thread must **not** call `apply_update` while holding its own
    /// epoch guard — the retire step would wait for the caller itself.
    pub fn pin_epoch(&self) -> EpochGuard<'_> {
        self.epoch.pin()
    }

    /// The snapshot version currently published for `namespace`: the
    /// minimum across its tables (batches publish all of them together,
    /// so the minimum only lags mid-publish). 0 for an unknown or empty
    /// namespace — freshly registered tables start at v0.
    pub fn namespace_version(&self, namespace: u64) -> u64 {
        let slots: Vec<usize> = {
            let index = self.index.lock();
            index
                .iter()
                .filter(|((ns, _), _)| *ns == namespace)
                .map(|(_, &slot)| slot)
                .collect()
        };
        let tables = self.tables.read();
        slots
            .iter()
            .map(|&s| tables[s].version.load(Ordering::Acquire))
            .min()
            .unwrap_or(0)
    }

    /// Enumerates the tables registered under `namespace` as
    /// `(ordinal, rows, dim)` triples, sorted by ordinal — how a live
    /// updater discovers what it can rewrite without holding a model's
    /// binding list.
    pub fn namespace_tables(&self, namespace: u64) -> Vec<(u32, usize, usize)> {
        let slots: Vec<(u32, usize)> = {
            let index = self.index.lock();
            index
                .iter()
                .filter(|((ns, _), _)| *ns == namespace)
                .map(|((_, ordinal), &slot)| (*ordinal, slot))
                .collect()
        };
        let tables = self.tables.read();
        let mut out: Vec<(u32, usize, usize)> = slots
            .into_iter()
            .map(|(ordinal, slot)| (ordinal, tables[slot].rows, tables[slot].dim))
            .collect();
        out.sort_unstable_by_key(|&(ordinal, _, _)| ordinal);
        out
    }

    /// Drops every cached or resident trace of `key`: the hot-row cache
    /// entry and the DRAM tier residency (CLOCK slot + pending prefetch
    /// intent).
    fn invalidate_row(&self, key: u64) {
        self.cache.invalidate(key);
        if let Some(tier) = &self.tier {
            tier.invalidate(key);
        }
    }

    /// Applies one versioned [`UpdateBatch`] atomically and publishes
    /// its version (DESIGN.md §14). The protocol, in order:
    ///
    /// 1. **Validate everything up front** — unknown tables, row ranges,
    ///    dims, and the version (`target_version` must be exactly one
    ///    past [`EmbeddingStore::namespace_version`]) are all checked
    ///    before any row is touched, so a malformed batch is rejected
    ///    with a typed error and zero visible effect.
    /// 2. **Apply with an undo log** — each delta re-encodes its row
    ///    under the shard write lock and invalidates the row's cached
    ///    copies; the pre-update row's stored bytes are kept for
    ///    rollback. An injected [`UpdateFault::CrashMidBatch`] fires
    ///    halfway through and rolls every applied row back (writing the
    ///    kept bytes back verbatim and re-invalidating), then returns
    ///    [`StoreError::UpdateAborted`] — the failed batch is invisible,
    ///    bit for bit in every encoding, and the version unchanged.
    /// 3. **Publish** — every table in the namespace advances to
    ///    `target_version` (an injected [`UpdateFault::DelayPublish`]
    ///    stalls just before this step; readers keep serving the prior
    ///    version meanwhile).
    /// 4. **Retire** — one epoch `synchronize` waits out every reader
    ///    pinned before the publish, then the batch's keys are
    ///    invalidated a second time: a pre-publish reader may have
    ///    re-inserted a row it decoded *before* step 2's invalidation,
    ///    and that stale insert necessarily happened before its unpin,
    ///    hence before this pass (the `loom_sync` epoch test checks
    ///    exactly this ordering).
    ///
    /// `fault` is the injected update fault to honor (the updater
    /// threads its [`drec_faultsim::FaultHook::on_update`] decision
    /// through here); pass [`UpdateFault::None`] on the clean path.
    ///
    /// # Errors
    ///
    /// [`StoreError::TableNotRegistered`], [`StoreError::RowOutOfRange`],
    /// [`StoreError::DataSizeMismatch`] (validation),
    /// [`StoreError::VersionConflict`] (duplicate or gapped version), or
    /// [`StoreError::UpdateAborted`] (injected crash, rolled back).
    pub fn apply_update(
        &self,
        batch: &UpdateBatch,
        fault: UpdateFault,
    ) -> Result<UpdateReport, StoreError> {
        // Step 1: resolve and validate every delta before touching rows.
        let (resolved, ns_tables) = {
            let index = self.index.lock();
            let tables = self.tables.read();
            let mut resolved = Vec::with_capacity(batch.deltas.len());
            for delta in &batch.deltas {
                let &slot = index.get(&(batch.namespace, delta.ordinal)).ok_or(
                    StoreError::TableNotRegistered {
                        namespace: batch.namespace,
                        ordinal: delta.ordinal,
                    },
                )?;
                let table = &tables[slot];
                if (delta.row as usize) >= table.rows {
                    return Err(StoreError::RowOutOfRange {
                        row: delta.row,
                        rows: table.rows,
                    });
                }
                if delta.values.len() != table.dim {
                    return Err(StoreError::DataSizeMismatch {
                        expected: table.dim,
                        actual: delta.values.len(),
                    });
                }
                resolved.push((slot, Arc::clone(table), delta));
            }
            let ns_tables: Vec<Arc<StoredTable>> = index
                .iter()
                .filter(|((ns, _), _)| *ns == batch.namespace)
                .map(|(_, &slot)| Arc::clone(&tables[slot]))
                .collect();
            (resolved, ns_tables)
        };
        if ns_tables.is_empty() {
            return Err(StoreError::TableNotRegistered {
                namespace: batch.namespace,
                ordinal: 0,
            });
        }
        let current = ns_tables
            .iter()
            .map(|t| t.version.load(Ordering::Acquire))
            .min()
            .unwrap_or(0);
        if batch.target_version != current + 1 {
            if batch.target_version <= current {
                self.update_duplicates_rejected
                    .fetch_add(1, Ordering::Relaxed);
            }
            return Err(StoreError::VersionConflict {
                namespace: batch.namespace,
                current,
                target: batch.target_version,
            });
        }

        // Step 2: apply under an undo log, crashing halfway if injected.
        let crash_at = match fault {
            UpdateFault::CrashMidBatch { .. } => Some(resolved.len() / 2),
            _ => None,
        };
        let mut undo: Vec<(Arc<StoredTable>, u32, RowData, u64)> =
            Vec::with_capacity(resolved.len());
        for (i, (slot, table, delta)) in resolved.iter().enumerate() {
            if crash_at == Some(i) {
                for (table, row, old, key) in undo.drain(..).rev() {
                    table.restore_row(row, &old);
                    self.invalidate_row(key);
                }
                self.update_rollbacks.fetch_add(1, Ordering::Relaxed);
                return Err(StoreError::UpdateAborted {
                    namespace: batch.namespace,
                    target: batch.target_version,
                    rows_rolled_back: i,
                });
            }
            let old = table.row_copy(delta.row);
            let key = ((*slot as u64) << 32) | u64::from(delta.row);
            table.write_row(delta.row, &delta.values);
            self.invalidate_row(key);
            undo.push((Arc::clone(table), delta.row, old, key));
        }

        // Step 3: publish (optionally after an injected delay, during
        // which readers keep serving the still-current prior version).
        if let UpdateFault::DelayPublish(delay) = fault {
            self.update_publish_delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(delay);
        }
        for table in &ns_tables {
            table.version.store(batch.target_version, Ordering::Release);
        }

        // Step 4: retire — wait out pre-publish readers, then clear any
        // stale state they re-cached while still pinned.
        self.epoch.synchronize();
        for (_, _, _, key) in &undo {
            self.invalidate_row(*key);
        }
        self.update_rows_retired
            .fetch_add(undo.len() as u64, Ordering::Relaxed);
        self.update_batches_applied.fetch_add(1, Ordering::Relaxed);
        self.update_rows_applied
            .fetch_add(undo.len() as u64, Ordering::Relaxed);
        Ok(UpdateReport {
            rows_applied: undo.len(),
            published_version: batch.target_version,
        })
    }

    /// Point-in-time counters and gauges.
    pub fn stats(&self) -> StoreStats {
        let tables = self.tables.read();
        let mut rows = 0u64;
        let mut resident_bytes = 0u64;
        let mut f32_bytes = 0u64;
        for t in tables.iter() {
            rows += t.rows as u64;
            resident_bytes += t.resident_bytes();
            f32_bytes += (t.rows * t.dim * 4) as u64;
        }
        let tier = self.tier.as_ref().map(|t| t.stats()).unwrap_or_default();
        StoreStats {
            tables: tables.len(),
            rows,
            resident_bytes,
            f32_bytes,
            lookups: self.lookups.load(Ordering::Relaxed),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_evictions: self.cache.evictions(),
            cache_resident_rows: self.cache.resident_rows(),
            cache_capacity_rows: self.cache.capacity_rows() as u64,
            cache_only_skips: self.cache_only_skips.load(Ordering::Relaxed),
            decode_vector: self.decode_vector.load(Ordering::Relaxed),
            decode_scalar: self.decode_scalar.load(Ordering::Relaxed),
            tier_dram_budget_rows: tier.dram_budget_rows,
            tier_dram_resident_rows: tier.dram_resident_rows,
            tier_dram_hits: tier.dram_hits,
            tier_cold_demand_reads: tier.cold_demand_reads,
            tier_promotions: tier.promotions,
            tier_evictions: tier.evictions,
            tier_demand_wait_nanos: tier.demand_wait_nanos,
            tier_prefetch_wait_nanos: tier.prefetch_wait_nanos,
            prefetch_issued: tier.prefetch_issued,
            prefetch_fills: tier.prefetch_fills,
            prefetch_hits: tier.prefetch_hits,
            prefetch_late: tier.prefetch_late,
            prefetch_wasted: tier.prefetch_wasted,
            prefetch_aborted_stale: tier.prefetch_aborted_stale,
            tier_invalidations: tier.invalidations,
            combined_hits: 0,
            combined_lookups_saved: 0,
            update_batches_applied: self.update_batches_applied.load(Ordering::Relaxed),
            update_rows_applied: self.update_rows_applied.load(Ordering::Relaxed),
            update_rows_retired: self.update_rows_retired.load(Ordering::Relaxed),
            update_rollbacks: self.update_rollbacks.load(Ordering::Relaxed),
            update_duplicates_rejected: self.update_duplicates_rejected.load(Ordering::Relaxed),
            update_publish_delays: self.update_publish_delays.load(Ordering::Relaxed),
            update_synchronizations: self.epoch.synchronizations(),
            pinned_readers: self.epoch.pinned_readers(),
        }
    }

    /// Whether this store simulates a DRAM/SSD tier.
    pub fn tier_enabled(&self) -> bool {
        self.tier.is_some()
    }

    /// Whether the serving runtime should stream-prefetch for this store
    /// (tiering on and its prefetch flag set).
    pub fn prefetch_enabled(&self) -> bool {
        self.tier.as_ref().is_some_and(|t| t.prefetch_enabled())
    }

    /// `(DRAM-resident rows, total rows)` across the tables registered
    /// under `namespace` — the per-model residency report (a model's
    /// tables all share its namespace). Without tiering everything is
    /// resident. O(resident set) per call; reporting path only.
    pub fn namespace_residency(&self, namespace: u64) -> (u64, u64) {
        let handles: Vec<u64> = {
            let index = self.index.lock();
            index
                .iter()
                .filter(|((ns, _), _)| *ns == namespace)
                .map(|(_, &slot)| slot as u64)
                .collect()
        };
        let total: u64 = {
            let tables = self.tables.read();
            handles
                .iter()
                .map(|&h| tables[h as usize].rows as u64)
                .sum()
        };
        match &self.tier {
            Some(tier) => {
                let resident = tier.count_resident(|key| handles.contains(&(key >> 32))) as u64;
                (resident, total)
            }
            None => (total, total),
        }
    }

    /// Tallies one cold-shard decode into the vector/scalar counter pair.
    #[inline]
    fn tally_decode(&self, path: KernelPath) {
        match path {
            KernelPath::Vector => self.decode_vector.fetch_add(1, Ordering::Relaxed),
            KernelPath::Scalar => self.decode_scalar.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// A pinned reference to one table in a store — the hot-path lookup API.
#[derive(Debug, Clone)]
pub struct PinnedTable {
    store: Arc<EmbeddingStore>,
    table: Arc<StoredTable>,
    handle: TableHandle,
}

impl PinnedTable {
    /// Row count of the pinned table.
    pub fn rows(&self) -> usize {
        self.table.rows
    }

    /// Row width of the pinned table.
    pub fn dim(&self) -> usize {
        self.table.dim
    }

    /// The handle this pin was created from.
    pub fn handle(&self) -> TableHandle {
        self.handle
    }

    /// The store this table lives in.
    pub fn store(&self) -> &Arc<EmbeddingStore> {
        &self.store
    }

    /// The snapshot version currently published for this table (v0
    /// until the first update batch lands).
    pub fn version(&self) -> u64 {
        self.table.version.load(Ordering::Acquire)
    }

    /// Copies row `row` straight from its shard into `dst`, bypassing
    /// the hot-row cache, the tier model, fault injection, and every
    /// counter — the quiet path the updater uses to capture pre-update
    /// rows for its quiescence oracle.
    ///
    /// # Errors
    ///
    /// [`StoreError::RowOutOfRange`] or [`StoreError::DataSizeMismatch`].
    pub fn read_row_raw(&self, row: u32, dst: &mut [f32]) -> Result<(), StoreError> {
        if (row as usize) >= self.table.rows {
            return Err(StoreError::RowOutOfRange {
                row,
                rows: self.table.rows,
            });
        }
        if dst.len() != self.table.dim {
            return Err(StoreError::DataSizeMismatch {
                expected: self.table.dim,
                actual: dst.len(),
            });
        }
        self.table.read_into(row, dst);
        Ok(())
    }

    /// Cache key for a row of this table.
    fn key(&self, row: u32) -> u64 {
        ((self.handle.0 as u64) << 32) | u64::from(row)
    }

    /// Applies any injected read fault and reports whether a cold-shard
    /// read should be skipped (cache-only degraded mode).
    #[inline]
    fn before_cold_read(&self, row: u32) -> bool {
        match self.store.faults.on_read() {
            ReadFault::None => {}
            ReadFault::Poison { read } => panic!(
                "faultsim: poisoned read {read} (table {}, row {row})",
                self.handle.0
            ),
            ReadFault::Delay(d) => std::thread::sleep(d),
        }
        if self.store.cache_only.load(Ordering::Relaxed) {
            self.store.cache_only_skips.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Charges the DRAM/SSD tier for one demand access: a resident row
    /// is free, a cold row pays the configured cold-read latency (slept
    /// or virtually charged) and gets promoted. Called on every
    /// cold-shard read; values are unaffected either way.
    #[inline]
    fn tier_demand(&self, key: u64) {
        if let Some(tier) = &self.store.tier {
            tier.demand_access(key);
        }
    }

    /// Adds row `row` element-wise into `acc` (`acc[i] += row[i]`, left
    /// to right — the identical reduction a dense-tensor lookup performs,
    /// so the `F32` encoding is bit-identical to the direct path whether
    /// the row comes from the cache or a cold shard).
    ///
    /// # Panics
    ///
    /// Debug-asserts `row < rows` and `acc.len() == dim`; callers
    /// validate indices before reaching the hot path.
    pub fn sum_row(&self, row: u32, acc: &mut [f32]) {
        debug_assert!((row as usize) < self.table.rows);
        debug_assert_eq!(acc.len(), self.table.dim);
        self.store.lookups.fetch_add(1, Ordering::Relaxed);
        let cache = &self.store.cache;
        if !cache.enabled() {
            if !self.before_cold_read(row) {
                self.tier_demand(self.key(row));
                let path = self.table.sum_into(row, acc);
                self.store.tally_decode(path);
            }
            return;
        }
        let key = self.key(row);
        let hit = cache.with_row(key, |cached| {
            // Cache hit: rows are cached *decoded*, so no kernel runs and
            // neither decode counter moves. The hot-row cache is DRAM, so
            // the tier is not consulted either.
            for (a, &v) in acc.iter_mut().zip(cached) {
                *a += v;
            }
        });
        if hit.is_none() {
            // Cache miss: in cache-only degraded mode the row's
            // contribution is dropped (counted as a quality-loss skip);
            // otherwise charge the tier, decode from the cold shard, and
            // promote.
            if self.before_cold_read(row) {
                return;
            }
            self.tier_demand(key);
            let mut decoded = vec![0.0f32; self.table.dim].into_boxed_slice();
            let path = self.table.read_into(row, &mut decoded);
            self.store.tally_decode(path);
            for (a, &v) in acc.iter_mut().zip(decoded.iter()) {
                *a += v;
            }
            cache.insert(key, decoded);
        }
    }

    /// Copies row `row` into `dst` (length `dim`). In cache-only
    /// degraded mode a miss fills `dst` with zeros instead of touching
    /// the cold shard.
    pub fn read_row(&self, row: u32, dst: &mut [f32]) {
        debug_assert!((row as usize) < self.table.rows);
        debug_assert_eq!(dst.len(), self.table.dim);
        self.store.lookups.fetch_add(1, Ordering::Relaxed);
        let cache = &self.store.cache;
        if !cache.enabled() {
            if self.before_cold_read(row) {
                dst.fill(0.0);
            } else {
                self.tier_demand(self.key(row));
                let path = self.table.read_into(row, dst);
                self.store.tally_decode(path);
            }
            return;
        }
        let key = self.key(row);
        let hit = cache.with_row(key, |cached| dst.copy_from_slice(cached));
        if hit.is_none() {
            if self.before_cold_read(row) {
                dst.fill(0.0);
                return;
            }
            self.tier_demand(key);
            let path = self.table.read_into(row, dst);
            self.store.tally_decode(path);
            cache.insert(key, dst.to_vec().into_boxed_slice());
        }
    }

    /// Registers a prefetch intent for `row` — the admission-time half
    /// of the stream prefetcher. Returns `true` when a
    /// [`PinnedTable::prefetch_row`] fill should be issued (tiering is
    /// on and the row is neither DRAM-resident nor already pending).
    pub fn note_prefetch_intent(&self, row: u32) -> bool {
        if (row as usize) >= self.table.rows {
            return false;
        }
        match &self.store.tier {
            Some(tier) => tier.note_intent(self.key(row)),
            None => false,
        }
    }

    /// Completes a prefetch for `row`: pays the cold-read latency *off*
    /// the request critical path and promotes the row into the DRAM
    /// tier. A fill moves only the prefetch counters — it is not a
    /// demand decode (`decode_vector`/`decode_scalar` stay put, the
    /// hot-row cache is untouched) because a tier promotion moves
    /// encoded bytes, not decoded rows. No-op without tiering or when
    /// the row is already resident.
    pub fn prefetch_row(&self, row: u32) {
        if (row as usize) >= self.table.rows {
            return;
        }
        if let Some(tier) = &self.store.tier {
            // Capture the table's write stamp before the fill and
            // re-verify it under the residency lock: a row update that
            // lands between capture and fill bumps the stamp first, so
            // the fill aborts instead of parking the row's pre-update
            // state as resident (and the update's own invalidation
            // cannot race past an already-parked stale fill, because the
            // verify and the invalidation serialize on the same lock).
            let stamp = self.table.write_stamp.load(Ordering::Acquire);
            let table = &self.table;
            tier.prefetch_fill_if(self.key(row), || {
                table.write_stamp.load(Ordering::Acquire) == stamp
            });
        }
    }

    /// Whether `row` is currently DRAM-resident (always `true` without
    /// tiering).
    pub fn is_resident(&self, row: u32) -> bool {
        match &self.store.tier {
            Some(tier) => tier.is_resident(self.key(row)),
            None => true,
        }
    }

    /// Re-encodes one row from `values` under the owning shard's write
    /// lock and invalidates every cached or resident trace of it
    /// (hot-row cache and tier residency), so subsequent lookups see the
    /// new value and re-earn residency from it.
    ///
    /// # Errors
    ///
    /// [`StoreError::RowOutOfRange`] or [`StoreError::DataSizeMismatch`].
    pub fn update_row(&self, row: u32, values: &[f32]) -> Result<(), StoreError> {
        if (row as usize) >= self.table.rows {
            return Err(StoreError::RowOutOfRange {
                row,
                rows: self.table.rows,
            });
        }
        if values.len() != self.table.dim {
            return Err(StoreError::DataSizeMismatch {
                expected: self.table.dim,
                actual: values.len(),
            });
        }
        self.table.write_row(row, values);
        self.store.invalidate_row(self.key(row));
        Ok(())
    }
}

/// Counters and gauges snapshot for an [`EmbeddingStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Registered tables.
    pub tables: usize,
    /// Total rows across all tables.
    pub rows: u64,
    /// Bytes resident in the configured encoding.
    pub resident_bytes: u64,
    /// Bytes the same tables would occupy in plain f32.
    pub f32_bytes: u64,
    /// Row lookups served (sum + copy).
    pub lookups: u64,
    /// Hot-row cache hits.
    pub cache_hits: u64,
    /// Hot-row cache misses.
    pub cache_misses: u64,
    /// Hot-row cache evictions.
    pub cache_evictions: u64,
    /// Rows currently resident in the hot-row cache.
    pub cache_resident_rows: u64,
    /// Configured hot-row cache capacity.
    pub cache_capacity_rows: u64,
    /// Cold-shard reads skipped while in cache-only degraded mode — the
    /// store's quality-loss counter: each skip dropped one row's
    /// contribution from a pooled lookup (or zero-filled a copy).
    pub cache_only_skips: u64,
    /// Cold-shard row decodes served by the vector (AVX2/FMA) kernels.
    /// Hot-row-cache hits are *not* decodes and move neither counter.
    pub decode_vector: u64,
    /// Cold-shard row decodes served by the portable scalar kernels.
    pub decode_scalar: u64,
    /// Configured DRAM hot-tier budget, rows (0 without tiering).
    pub tier_dram_budget_rows: u64,
    /// Rows currently DRAM-resident in the tier (gauge).
    pub tier_dram_resident_rows: u64,
    /// Demand accesses that found their row DRAM-resident.
    pub tier_dram_hits: u64,
    /// Demand accesses that paid a simulated cold-tier (SSD) read —
    /// counted separately from `decode_vector`/`decode_scalar`: a cold
    /// *read* is the modelled byte transfer, a *decode* is the kernel
    /// work, and one access can involve both, either, or neither.
    pub tier_cold_demand_reads: u64,
    /// Rows promoted into the DRAM tier (demand + prefetch).
    pub tier_promotions: u64,
    /// Rows evicted from the DRAM tier.
    pub tier_evictions: u64,
    /// Cold-read nanoseconds charged on the demand (request-critical)
    /// path.
    pub tier_demand_wait_nanos: u64,
    /// Cold-read nanoseconds charged to prefetch fills (overlapped).
    pub tier_prefetch_wait_nanos: u64,
    /// Prefetch intents accepted at admission.
    pub prefetch_issued: u64,
    /// Prefetch fills that promoted a row — never counted as demand
    /// decodes (a fill moves encoded bytes between tiers, no kernel
    /// runs).
    pub prefetch_fills: u64,
    /// Demand accesses served by a still-unused prefetched row.
    pub prefetch_hits: u64,
    /// Demand accesses that overtook their still-pending prefetch.
    pub prefetch_late: u64,
    /// Prefetched rows evicted before any demand use.
    pub prefetch_wasted: u64,
    /// Prefetch fills aborted because the row was rewritten between the
    /// fill's start and its residency insert — each abort is a stale
    /// parking the update/prefetch race would otherwise have caused.
    pub prefetch_aborted_stale: u64,
    /// Tier residency invalidations from row updates.
    pub tier_invalidations: u64,
    /// Always 0: the table-combining cache is gone. Kept only so the
    /// frozen `servebench` benchmark still compiles; drop it at the next
    /// benchmark change.
    pub combined_hits: u64,
    /// Always 0: the table-combining cache is gone. Kept only so the
    /// frozen `servebench` benchmark still compiles; drop it at the next
    /// benchmark change.
    pub combined_lookups_saved: u64,
    /// Update batches applied and published ([`EmbeddingStore::apply_update`]).
    pub update_batches_applied: u64,
    /// Rows rewritten by applied update batches.
    pub update_rows_applied: u64,
    /// Superseded rows retired after the post-publish synchronize.
    pub update_rows_retired: u64,
    /// Update batches rolled back whole (injected crash mid-batch).
    pub update_rollbacks: u64,
    /// Duplicate (already-published) update batches rejected.
    pub update_duplicates_rejected: u64,
    /// Injected publish delays honored mid-update.
    pub update_publish_delays: u64,
    /// Epoch synchronizations completed by the retire step.
    pub update_synchronizations: u64,
    /// Readers currently pinned into the update epoch (gauge; racy).
    pub pinned_readers: u64,
}

impl StoreStats {
    /// Counter deltas since `base` (gauges — table/row/byte totals and
    /// cache occupancy — keep their current values).
    pub fn since(&self, base: &StoreStats) -> StoreStats {
        StoreStats {
            lookups: self.lookups.saturating_sub(base.lookups),
            cache_hits: self.cache_hits.saturating_sub(base.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(base.cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(base.cache_evictions),
            cache_only_skips: self.cache_only_skips.saturating_sub(base.cache_only_skips),
            decode_vector: self.decode_vector.saturating_sub(base.decode_vector),
            decode_scalar: self.decode_scalar.saturating_sub(base.decode_scalar),
            tier_dram_hits: self.tier_dram_hits.saturating_sub(base.tier_dram_hits),
            tier_cold_demand_reads: self
                .tier_cold_demand_reads
                .saturating_sub(base.tier_cold_demand_reads),
            tier_promotions: self.tier_promotions.saturating_sub(base.tier_promotions),
            tier_evictions: self.tier_evictions.saturating_sub(base.tier_evictions),
            tier_demand_wait_nanos: self
                .tier_demand_wait_nanos
                .saturating_sub(base.tier_demand_wait_nanos),
            tier_prefetch_wait_nanos: self
                .tier_prefetch_wait_nanos
                .saturating_sub(base.tier_prefetch_wait_nanos),
            prefetch_issued: self.prefetch_issued.saturating_sub(base.prefetch_issued),
            prefetch_fills: self.prefetch_fills.saturating_sub(base.prefetch_fills),
            prefetch_hits: self.prefetch_hits.saturating_sub(base.prefetch_hits),
            prefetch_late: self.prefetch_late.saturating_sub(base.prefetch_late),
            prefetch_wasted: self.prefetch_wasted.saturating_sub(base.prefetch_wasted),
            prefetch_aborted_stale: self
                .prefetch_aborted_stale
                .saturating_sub(base.prefetch_aborted_stale),
            tier_invalidations: self
                .tier_invalidations
                .saturating_sub(base.tier_invalidations),
            update_batches_applied: self
                .update_batches_applied
                .saturating_sub(base.update_batches_applied),
            update_rows_applied: self
                .update_rows_applied
                .saturating_sub(base.update_rows_applied),
            update_rows_retired: self
                .update_rows_retired
                .saturating_sub(base.update_rows_retired),
            update_rollbacks: self.update_rollbacks.saturating_sub(base.update_rollbacks),
            update_duplicates_rejected: self
                .update_duplicates_rejected
                .saturating_sub(base.update_duplicates_rejected),
            update_publish_delays: self
                .update_publish_delays
                .saturating_sub(base.update_publish_delays),
            update_synchronizations: self
                .update_synchronizations
                .saturating_sub(base.update_synchronizations),
            ..self.clone()
        }
    }

    /// Fraction of cold-shard decodes that ran on the vector kernels
    /// (0 when nothing was decoded) — the kernel-backend mix for a run.
    pub fn vector_decode_fraction(&self) -> f64 {
        let total = self.decode_vector + self.decode_scalar;
        if total == 0 {
            0.0
        } else {
            self.decode_vector as f64 / total as f64
        }
    }

    /// Cache hit rate over the accesses in this snapshot (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Bytes saved versus plain f32 storage.
    pub fn bytes_saved(&self) -> u64 {
        self.f32_bytes.saturating_sub(self.resident_bytes)
    }

    /// f32 bytes over resident bytes (1.0 for an empty store).
    pub fn compression(&self) -> f64 {
        if self.resident_bytes == 0 {
            1.0
        } else {
            self.f32_bytes as f64 / self.resident_bytes as f64
        }
    }

    /// DRAM hit rate: the fraction of all row lookups served without a
    /// cold-tier read — hot-row-cache hits and tier-resident decodes
    /// both count as DRAM. 1.0 without tiering (everything is DRAM) or
    /// when idle.
    pub fn dram_hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            1.0
        } else {
            1.0 - self.tier_cold_demand_reads as f64 / self.lookups as f64
        }
    }

    /// The same figure as [`StoreStats::dram_hit_rate`] under its old
    /// name. Kept only so the frozen `servebench` benchmark still
    /// compiles; drop it at the next benchmark change.
    pub fn combined_dram_hit_rate(&self) -> f64 {
        self.dram_hit_rate()
    }

    /// Fraction of would-be cold demand misses the prefetcher converted
    /// into DRAM hits: `prefetch_hits / (prefetch_hits +
    /// tier_cold_demand_reads)`. 0 when neither moved.
    pub fn prefetch_conversion(&self) -> f64 {
        let total = self.prefetch_hits + self.tier_cold_demand_reads;
        if total == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / total as f64
        }
    }

    /// Always 0: the table-combining cache is gone. Kept only so the
    /// frozen `servebench` benchmark still compiles; drop it at the next
    /// benchmark change.
    pub fn combined_lookup_cut(&self) -> f64 {
        0.0
    }

    /// Mean cold-read wait charged per lookup on the demand path,
    /// nanoseconds (0 when idle).
    pub fn mean_demand_wait_nanos(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.tier_demand_wait_nanos as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(rows: usize, dim: usize) -> Vec<f32> {
        (0..rows * dim).map(|i| (i as f32) * 0.01 - 3.0).collect()
    }

    fn store(cfg: StoreConfig) -> Arc<EmbeddingStore> {
        Arc::new(EmbeddingStore::new(cfg))
    }

    #[test]
    fn register_validates_shape_and_data() {
        let s = store(StoreConfig::default());
        assert_eq!(
            s.register(1, 0, 0, 4, &[]),
            Err(StoreError::EmptyTable { rows: 0, dim: 4 })
        );
        assert_eq!(
            s.register(1, 0, 2, 4, &[0.0; 7]),
            Err(StoreError::DataSizeMismatch {
                expected: 8,
                actual: 7
            })
        );
    }

    #[test]
    fn register_dedupes_by_namespace_and_ordinal() {
        let s = store(StoreConfig::default());
        let data = filled(10, 4);
        let h1 = s.register(42, 0, 10, 4, &data).unwrap();
        let h2 = s.register(42, 0, 10, 4, &data).unwrap();
        assert_eq!(h1, h2);
        assert_eq!(s.stats().tables, 1);
        // Different ordinal or namespace gets a fresh table.
        let h3 = s.register(42, 1, 10, 4, &data).unwrap();
        let h4 = s.register(43, 0, 10, 4, &data).unwrap();
        assert_ne!(h1, h3);
        assert_ne!(h1, h4);
        assert_eq!(s.stats().tables, 3);
        // Dedup hit with a different shape is an error.
        assert!(matches!(
            s.register(42, 0, 10, 8, &filled(10, 8)),
            Err(StoreError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn f32_sum_row_is_bit_identical_to_manual_add() {
        let s = store(StoreConfig {
            cache_capacity_rows: 16,
            ..StoreConfig::default()
        });
        let data = filled(100, 8);
        let h = s.register(1, 0, 100, 8, &data).unwrap();
        let pin = s.pin(h);
        for pass in 0..2 {
            // Pass 0 populates the cache, pass 1 hits it — both must be
            // bit-identical to the direct add.
            for row in [0u32, 37, 99] {
                let mut acc = vec![0.125f32; 8];
                let mut expect = acc.clone();
                pin.sum_row(row, &mut acc);
                for (a, &v) in expect
                    .iter_mut()
                    .zip(&data[row as usize * 8..(row as usize + 1) * 8])
                {
                    *a += v;
                }
                assert_eq!(acc, expect, "pass {pass} row {row}");
            }
        }
        assert!(s.stats().cache_hits >= 3);
    }

    #[test]
    fn rows_span_shards_correctly() {
        // 100 rows over 8 shards → 13 rows/shard; exercise boundaries.
        let s = store(StoreConfig::default());
        let data = filled(100, 4);
        let h = s.register(1, 0, 100, 4, &data).unwrap();
        let pin = s.pin(h);
        let mut out = vec![0.0f32; 4];
        for row in [0u32, 12, 13, 25, 26, 64, 65, 99] {
            pin.read_row(row, &mut out);
            assert_eq!(out, &data[row as usize * 4..(row as usize + 1) * 4]);
        }
    }

    #[test]
    fn int8_store_compresses_and_stays_within_bound() {
        let s = store(StoreConfig {
            encoding: RowEncoding::Int8,
            ..StoreConfig::default()
        });
        let dim = 32;
        let data = filled(64, dim);
        let h = s.register(1, 0, 64, dim, &data).unwrap();
        let stats = s.stats();
        assert!(
            stats.compression() >= 3.0,
            "compression {} < 3.0",
            stats.compression()
        );
        assert_eq!(stats.bytes_saved(), stats.f32_bytes - stats.resident_bytes);
        let pin = s.pin(h);
        let mut out = vec![0.0f32; dim];
        for row in 0..64u32 {
            let src = &data[row as usize * dim..(row as usize + 1) * dim];
            let bound = RowEncoding::Int8.error_bound(src);
            pin.read_row(row, &mut out);
            for (o, x) in out.iter().zip(src) {
                assert!((o - x).abs() <= bound);
            }
        }
    }

    #[test]
    fn update_row_is_visible_and_invalidates_cache() {
        let s = store(StoreConfig {
            cache_capacity_rows: 8,
            ..StoreConfig::default()
        });
        let h = s.register(1, 0, 10, 4, &filled(10, 4)).unwrap();
        let pin = s.pin(h);
        let mut out = vec![0.0f32; 4];
        pin.read_row(3, &mut out); // populate cache
        pin.update_row(3, &[9.0, 8.0, 7.0, 6.0]).unwrap();
        pin.read_row(3, &mut out);
        assert_eq!(out, [9.0, 8.0, 7.0, 6.0]);
        assert_eq!(
            pin.update_row(10, &[0.0; 4]),
            Err(StoreError::RowOutOfRange { row: 10, rows: 10 })
        );
        assert_eq!(
            pin.update_row(3, &[0.0; 3]),
            Err(StoreError::DataSizeMismatch {
                expected: 4,
                actual: 3
            })
        );
    }

    #[test]
    fn cache_only_mode_serves_hits_and_skips_cold_shards() {
        let s = store(StoreConfig {
            cache_capacity_rows: 8,
            ..StoreConfig::default()
        });
        let data = filled(10, 4);
        let h = s.register(1, 0, 10, 4, &data).unwrap();
        let pin = s.pin(h);
        let mut out = vec![0.0f32; 4];
        pin.read_row(3, &mut out); // warm row 3
        s.set_cache_only(true);
        assert!(s.cache_only());

        // Warm row: still served, bit-identical.
        pin.read_row(3, &mut out);
        assert_eq!(out, &data[12..16]);
        // Cold copy: zero-filled, counted as a quality-loss skip.
        pin.read_row(7, &mut out);
        assert_eq!(out, [0.0; 4]);
        // Cold pooled sum: contribution dropped, accumulator unchanged.
        let mut acc = vec![1.0f32; 4];
        pin.sum_row(8, &mut acc);
        assert_eq!(acc, [1.0; 4]);
        assert_eq!(s.stats().cache_only_skips, 2);

        // Leaving degraded mode restores full service.
        s.set_cache_only(false);
        pin.read_row(7, &mut out);
        assert_eq!(out, &data[28..32]);
        assert_eq!(s.stats().cache_only_skips, 2);
    }

    #[test]
    fn cache_only_degrade_overlapping_update_retires_cached_rows() {
        let s = store(StoreConfig {
            cache_capacity_rows: 8,
            ..StoreConfig::default()
        });
        let data = filled(10, 4);
        s.register(9, 0, 10, 4, &data).unwrap();
        let pin = s.pin(s.lookup(9, 0).unwrap());
        let mut out = vec![0.0f32; 4];
        pin.read_row(2, &mut out); // warm rows 2 and 4
        pin.read_row(4, &mut out);
        s.set_cache_only(true);

        // A rolling update lands while the store is degraded. The ladder
        // throttles *new* update batches upstream, but one already in
        // flight still publishes — and the cached pre-update rows it
        // touched must be retired. CacheOnly never pins a cached row
        // past its version.
        s.apply_update(
            &UpdateBatch {
                namespace: 9,
                target_version: 1,
                deltas: vec![delta(0, 2, &[9.0, 9.0, 9.0, 9.0])],
            },
            UpdateFault::None,
        )
        .unwrap();
        assert_eq!(s.namespace_version(9), 1);

        // The updated row's cached copy was invalidated; in cache-only
        // mode that miss is a quality-loss skip (zeros) — never the
        // stale pre-update bytes.
        pin.read_row(2, &mut out);
        assert_eq!(
            out, [0.0; 4],
            "stale pre-update bytes served from the cache after retirement"
        );
        // The untouched warm row still serves its (valid) cached copy.
        pin.read_row(4, &mut out);
        assert_eq!(out, &data[16..20]);
        assert!(s.stats().cache_only_skips >= 1);

        // Leaving degraded mode: the next demand read decodes the new
        // version from the cold shard and re-fills the cache...
        s.set_cache_only(false);
        pin.read_row(2, &mut out);
        assert_eq!(out, [9.0; 4]);
        // ...so a later degrade serves the *post-update* version warm.
        s.set_cache_only(true);
        pin.read_row(2, &mut out);
        assert_eq!(out, [9.0; 4], "refill must carry the published version");
    }

    #[test]
    fn cache_only_is_refused_without_a_cache() {
        // With no hot rows to serve from, degrading would zero every
        // lookup — the store refuses rather than serving garbage.
        let s = store(StoreConfig {
            cache_capacity_rows: 0,
            ..StoreConfig::default()
        });
        s.set_cache_only(true);
        assert!(!s.cache_only());
    }

    #[test]
    fn poisoned_read_panics_on_schedule_and_store_recovers() {
        use drec_faultsim::{FaultHook, FaultPlan};
        let plan = FaultPlan {
            poison_every_n_reads: Some(1), // every read panics
            ..FaultPlan::quiet(5)
        };
        let s = Arc::new(EmbeddingStore::with_faults(
            StoreConfig::default(),
            FaultHook::from_plan(&plan),
        ));
        let h = s.register(1, 0, 10, 4, &filled(10, 4)).unwrap();
        let pin = s.pin(h);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = vec![0.0f32; 4];
            pin.read_row(0, &mut out);
        }));
        let msg = *res.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("faultsim: poisoned read"), "{msg}");
        // The panic fired before any lock was taken: stats still work.
        assert_eq!(s.stats().tables, 1);
    }

    fn tiered_cfg(budget: usize) -> StoreConfig {
        use drec_tier::{ColdReadModel, Pacing};
        StoreConfig {
            tier: Some(TierConfig {
                cold_read: ColdReadModel {
                    pacing: Pacing::Charge,
                    seed: 9,
                    ..ColdReadModel::default()
                },
                ..TierConfig::new(budget)
            }),
            ..StoreConfig::default()
        }
    }

    #[test]
    fn tiered_lookups_are_bit_identical_and_charge_cold_waits() {
        let data = filled(100, 8);
        let plain = store(StoreConfig::default());
        let tiered = store(tiered_cfg(10));
        let hp = plain.register(1, 0, 100, 8, &data).unwrap();
        let ht = tiered.register(1, 0, 100, 8, &data).unwrap();
        let (pp, pt) = (plain.pin(hp), tiered.pin(ht));
        let mut a = vec![0.5f32; 8];
        let mut b = vec![0.5f32; 8];
        for row in [0u32, 7, 7, 42, 99, 7] {
            pp.sum_row(row, &mut a);
            pt.sum_row(row, &mut b);
        }
        assert_eq!(a, b, "tier residency must never change values");
        let s = tiered.stats();
        // 4 distinct rows cold, 2 repeats resident.
        assert_eq!(s.tier_cold_demand_reads, 4);
        assert_eq!(s.tier_dram_hits, 2);
        assert_eq!(s.tier_promotions, 4);
        assert!(s.tier_demand_wait_nanos > 0);
        assert!((s.dram_hit_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(plain.stats().tier_cold_demand_reads, 0);
        assert!((plain.stats().dram_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prefetch_fills_convert_demand_misses_without_decoding() {
        let s = store(tiered_cfg(50));
        let h = s.register(1, 0, 100, 4, &filled(100, 4)).unwrap();
        let pin = s.pin(h);
        for row in [3u32, 4, 5] {
            assert!(pin.note_prefetch_intent(row));
            pin.prefetch_row(row);
            assert!(pin.is_resident(row));
        }
        let after_fill = s.stats();
        assert_eq!(after_fill.prefetch_fills, 3);
        assert_eq!(
            after_fill.decode_vector + after_fill.decode_scalar,
            0,
            "a prefetch fill moves encoded bytes, not a demand decode"
        );
        assert!(after_fill.tier_prefetch_wait_nanos > 0);
        assert_eq!(after_fill.tier_demand_wait_nanos, 0);
        let mut acc = vec![0.0f32; 4];
        for row in [3u32, 4, 5] {
            pin.sum_row(row, &mut acc);
        }
        let s2 = s.stats();
        assert_eq!(s2.prefetch_hits, 3);
        assert_eq!(s2.tier_cold_demand_reads, 0);
        assert!((s2.prefetch_conversion() - 1.0).abs() < 1e-12);
        // The demand decodes still happened (kernel work is real).
        assert_eq!(s2.decode_vector + s2.decode_scalar, 3);
    }

    #[test]
    fn namespace_residency_tracks_tiered_tables() {
        let s = store(tiered_cfg(5));
        let h1 = s.register(10, 0, 8, 2, &filled(8, 2)).unwrap();
        let _h2 = s.register(20, 0, 8, 2, &filled(8, 2)).unwrap();
        let pin = s.pin(h1);
        let mut acc = vec![0.0f32; 2];
        for row in 0..3u32 {
            pin.sum_row(row, &mut acc);
        }
        assert_eq!(s.namespace_residency(10), (3, 8));
        assert_eq!(s.namespace_residency(20), (0, 8));
        // Without tiering everything is resident.
        let flat = store(StoreConfig::default());
        flat.register(10, 0, 8, 2, &filled(8, 2)).unwrap();
        assert_eq!(flat.namespace_residency(10), (8, 8));
    }

    fn delta(ordinal: u32, row: u32, values: &[f32]) -> RowDelta {
        RowDelta {
            ordinal,
            row,
            values: values.to_vec(),
        }
    }

    #[test]
    fn apply_update_publishes_rows_and_version() {
        let s = store(StoreConfig {
            cache_capacity_rows: 8,
            ..StoreConfig::default()
        });
        let h0 = s.register(7, 0, 10, 2, &filled(10, 2)).unwrap();
        let h1 = s.register(7, 1, 10, 2, &filled(10, 2)).unwrap();
        let (p0, p1) = (s.pin(h0), s.pin(h1));
        let mut out = vec![0.0f32; 2];
        p0.read_row(3, &mut out); // warm the cache with the pre-update row
        assert_eq!(s.namespace_version(7), 0);
        assert_eq!(p0.version(), 0);

        let report = s
            .apply_update(
                &UpdateBatch {
                    namespace: 7,
                    target_version: 1,
                    deltas: vec![delta(0, 3, &[1.0, 2.0]), delta(1, 5, &[3.0, 4.0])],
                },
                UpdateFault::None,
            )
            .unwrap();
        assert_eq!(
            report,
            UpdateReport {
                rows_applied: 2,
                published_version: 1
            }
        );
        assert_eq!(s.namespace_version(7), 1);
        assert_eq!((p0.version(), p1.version()), (1, 1));
        p0.read_row(3, &mut out);
        assert_eq!(out, [1.0, 2.0], "cached pre-update row survived");
        p1.read_row(5, &mut out);
        assert_eq!(out, [3.0, 4.0]);
        let stats = s.stats();
        assert_eq!(stats.update_batches_applied, 1);
        assert_eq!(stats.update_rows_applied, 2);
        assert_eq!(stats.update_rows_retired, 2);
        assert_eq!(stats.update_synchronizations, 1);
        assert_eq!(stats.update_rollbacks, 0);
    }

    #[test]
    fn apply_update_rejects_gaps_and_duplicates() {
        let s = store(StoreConfig::default());
        s.register(7, 0, 4, 2, &filled(4, 2)).unwrap();
        let batch = |target| UpdateBatch {
            namespace: 7,
            target_version: target,
            deltas: vec![delta(0, 1, &[9.0, 9.0])],
        };
        // Gap: v2 before v1.
        assert_eq!(
            s.apply_update(&batch(2), UpdateFault::None),
            Err(StoreError::VersionConflict {
                namespace: 7,
                current: 0,
                target: 2
            })
        );
        s.apply_update(&batch(1), UpdateFault::None).unwrap();
        // Duplicate: v1 replayed after v1 published.
        assert_eq!(
            s.apply_update(&batch(1), UpdateFault::None),
            Err(StoreError::VersionConflict {
                namespace: 7,
                current: 1,
                target: 1
            })
        );
        assert_eq!(s.stats().update_duplicates_rejected, 1);
        // The gap rejection was not counted as a duplicate.
        assert_eq!(s.stats().update_batches_applied, 1);
    }

    #[test]
    fn crash_mid_batch_rolls_back_atomically() {
        let s = store(StoreConfig {
            cache_capacity_rows: 8,
            ..StoreConfig::default()
        });
        let data = filled(10, 2);
        let h = s.register(7, 0, 10, 2, &data).unwrap();
        let pin = s.pin(h);
        let batch = UpdateBatch {
            namespace: 7,
            target_version: 1,
            deltas: (0..4).map(|r| delta(0, r, &[5.0, 5.0])).collect(),
        };
        let err = s
            .apply_update(&batch, UpdateFault::CrashMidBatch { batch: 0 })
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::UpdateAborted {
                namespace: 7,
                target: 1,
                rows_rolled_back: 2
            }
        );
        // Nothing visible: every row reads pre-batch, version unchanged.
        let mut out = vec![0.0f32; 2];
        for row in 0..4u32 {
            pin.read_row(row, &mut out);
            assert_eq!(out, &data[row as usize * 2..(row as usize + 1) * 2]);
        }
        assert_eq!(s.namespace_version(7), 0);
        assert_eq!(s.stats().update_rollbacks, 1);
        assert_eq!(s.stats().update_batches_applied, 0);
        // Recovery: the same batch applies cleanly afterwards.
        s.apply_update(&batch, UpdateFault::None).unwrap();
        assert_eq!(s.namespace_version(7), 1);
        pin.read_row(0, &mut out);
        assert_eq!(out, [5.0, 5.0]);
    }

    #[test]
    fn crash_rollback_restores_stored_bits_in_every_encoding() {
        // Re-quantizing a decoded int8 row does not always land on the
        // same bytes, so rollback must put back the stored bytes, not
        // the decoded values.
        let (rows, dim) = (256usize, 32usize);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        };
        let data: Vec<f32> = (0..rows * dim).map(|_| next()).collect();
        let deltas: Vec<RowDelta> = (0..rows as u32)
            .map(|r| RowDelta {
                ordinal: 0,
                row: r,
                values: (0..dim).map(|_| next()).collect(),
            })
            .collect();
        let raw_bits = |pin: &PinnedTable| -> Vec<u32> {
            let mut out = vec![0.0f32; rows * dim];
            for (r, dst) in out.chunks_mut(dim).enumerate() {
                pin.read_row_raw(r as u32, dst).unwrap();
            }
            out.iter().map(|v| v.to_bits()).collect()
        };
        for encoding in [RowEncoding::F32, RowEncoding::F16, RowEncoding::Int8] {
            let s = store(StoreConfig {
                encoding,
                ..StoreConfig::default()
            });
            let pin = s.pin(s.register(7, 0, rows, dim, &data).unwrap());
            let before = raw_bits(&pin);
            let batch = UpdateBatch {
                namespace: 7,
                target_version: 1,
                deltas: deltas.clone(),
            };
            assert_eq!(
                s.apply_update(&batch, UpdateFault::CrashMidBatch { batch: 0 }),
                Err(StoreError::UpdateAborted {
                    namespace: 7,
                    target: 1,
                    rows_rolled_back: rows / 2
                })
            );
            let after = raw_bits(&pin);
            let changed = (0..rows)
                .filter(|&r| before[r * dim..(r + 1) * dim] != after[r * dim..(r + 1) * dim])
                .count();
            assert_eq!(
                changed, 0,
                "{encoding}: {changed} rows differ after rollback"
            );
        }
    }

    #[test]
    fn delayed_publish_still_lands() {
        let s = store(StoreConfig::default());
        s.register(7, 0, 4, 2, &filled(4, 2)).unwrap();
        let report = s
            .apply_update(
                &UpdateBatch {
                    namespace: 7,
                    target_version: 1,
                    deltas: vec![delta(0, 0, &[1.0, 1.0])],
                },
                UpdateFault::DelayPublish(std::time::Duration::from_millis(2)),
            )
            .unwrap();
        assert_eq!(report.published_version, 1);
        assert_eq!(s.stats().update_publish_delays, 1);
    }

    #[test]
    fn malformed_updates_are_typed_and_touch_nothing() {
        let s = store(StoreConfig::default());
        let data = filled(4, 2);
        let h = s.register(7, 0, 4, 2, &data).unwrap();
        let pin = s.pin(h);
        // Unregistered ordinal — even when other deltas are valid, the
        // batch rejects whole before any row is touched.
        assert_eq!(
            s.apply_update(
                &UpdateBatch {
                    namespace: 7,
                    target_version: 1,
                    deltas: vec![delta(0, 0, &[9.0, 9.0]), delta(3, 0, &[9.0, 9.0])],
                },
                UpdateFault::None,
            ),
            Err(StoreError::TableNotRegistered {
                namespace: 7,
                ordinal: 3
            })
        );
        // Row out of range.
        assert_eq!(
            s.apply_update(
                &UpdateBatch {
                    namespace: 7,
                    target_version: 1,
                    deltas: vec![delta(0, 4, &[9.0, 9.0])],
                },
                UpdateFault::None,
            ),
            Err(StoreError::RowOutOfRange { row: 4, rows: 4 })
        );
        // Wrong row width.
        assert_eq!(
            s.apply_update(
                &UpdateBatch {
                    namespace: 7,
                    target_version: 1,
                    deltas: vec![delta(0, 0, &[9.0])],
                },
                UpdateFault::None,
            ),
            Err(StoreError::DataSizeMismatch {
                expected: 2,
                actual: 1
            })
        );
        // Unknown namespace.
        assert!(matches!(
            s.apply_update(
                &UpdateBatch {
                    namespace: 8,
                    target_version: 1,
                    deltas: vec![],
                },
                UpdateFault::None,
            ),
            Err(StoreError::TableNotRegistered { namespace: 8, .. })
        ));
        // No row moved, no version advanced.
        let mut out = vec![0.0f32; 2];
        pin.read_row(0, &mut out);
        assert_eq!(out, &data[0..2]);
        assert_eq!(s.namespace_version(7), 0);
    }

    #[test]
    fn try_pin_and_lookup_return_typed_errors() {
        let s = store(StoreConfig::default());
        let h = s.register(7, 0, 4, 2, &filled(4, 2)).unwrap();
        assert!(s.try_pin(h).is_ok());
        assert_eq!(
            s.try_pin(TableHandle(5)).err(),
            Some(StoreError::UnknownTable {
                handle: 5,
                tables: 1
            })
        );
        assert_eq!(s.lookup(7, 0), Ok(h));
        assert_eq!(
            s.lookup(7, 1),
            Err(StoreError::TableNotRegistered {
                namespace: 7,
                ordinal: 1
            })
        );
    }

    #[test]
    fn cache_only_mode_respects_version_retirement() {
        // Satellite: a rolling update overlapping CacheOnly degrade must
        // not let the degraded cache serve retired (pre-update) rows.
        let s = store(StoreConfig {
            cache_capacity_rows: 8,
            ..StoreConfig::default()
        });
        let data = filled(4, 2);
        s.register(7, 0, 4, 2, &data).unwrap();
        let pin = s.pin(s.lookup(7, 0).unwrap());
        let mut out = vec![0.0f32; 2];
        pin.read_row(1, &mut out); // warm row 1 with the v0 value
        s.set_cache_only(true);
        s.apply_update(
            &UpdateBatch {
                namespace: 7,
                target_version: 1,
                deltas: vec![delta(0, 1, &[8.0, 8.0])],
            },
            UpdateFault::None,
        )
        .unwrap();
        // Degraded read: the retired v0 row was invalidated, so the miss
        // zero-fills (quality loss) rather than serving stale state.
        pin.read_row(1, &mut out);
        assert_eq!(out, [0.0, 0.0], "retired row served from degraded cache");
        // Back to full service: the v1 value decodes from the shard.
        s.set_cache_only(false);
        pin.read_row(1, &mut out);
        assert_eq!(out, [8.0, 8.0]);
    }

    #[test]
    fn update_row_invalidates_tier_residency() {
        let s = store(tiered_cfg(50));
        let h = s.register(1, 0, 10, 2, &filled(10, 2)).unwrap();
        let pin = s.pin(h);
        let mut acc = vec![0.0f32; 2];
        pin.sum_row(3, &mut acc); // promote into the DRAM tier
        assert!(pin.is_resident(3));
        pin.update_row(3, &[1.0, 1.0]).unwrap();
        assert!(!pin.is_resident(3), "updated row kept pre-update residency");
        assert_eq!(s.stats().tier_invalidations, 1);
    }

    #[test]
    fn read_row_raw_bypasses_cache_and_counters() {
        let s = store(StoreConfig {
            cache_capacity_rows: 8,
            ..StoreConfig::default()
        });
        let data = filled(4, 2);
        let h = s.register(7, 0, 4, 2, &data).unwrap();
        let pin = s.pin(h);
        let mut out = vec![0.0f32; 2];
        pin.read_row_raw(2, &mut out).unwrap();
        assert_eq!(out, &data[4..6]);
        let stats = s.stats();
        assert_eq!((stats.lookups, stats.cache_misses), (0, 0));
        assert_eq!(
            pin.read_row_raw(9, &mut out),
            Err(StoreError::RowOutOfRange { row: 9, rows: 4 })
        );
        let mut short = vec![0.0f32; 1];
        assert_eq!(
            pin.read_row_raw(0, &mut short),
            Err(StoreError::DataSizeMismatch {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn pinned_reader_blocks_retirement_until_unpinned() {
        let s = store(StoreConfig::default());
        s.register(7, 0, 4, 2, &filled(4, 2)).unwrap();
        let released = Arc::new(drec_sync::atomic::AtomicBool::new(false));
        let reader = {
            let (s, released) = (Arc::clone(&s), Arc::clone(&released));
            std::thread::spawn(move || {
                let guard = s.pin_epoch();
                std::thread::sleep(std::time::Duration::from_millis(15));
                released.store(true, Ordering::SeqCst);
                drop(guard);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(3));
        assert_eq!(s.stats().pinned_readers, 1);
        s.apply_update(
            &UpdateBatch {
                namespace: 7,
                target_version: 1,
                deltas: vec![delta(0, 0, &[1.0, 1.0])],
            },
            UpdateFault::None,
        )
        .unwrap();
        assert!(
            released.load(Ordering::SeqCst),
            "apply_update retired rows while a pre-publish reader was pinned"
        );
        reader.join().unwrap();
    }

    #[test]
    fn stats_since_subtracts_counters_keeps_gauges() {
        let s = store(StoreConfig {
            cache_capacity_rows: 4,
            ..StoreConfig::default()
        });
        let h = s.register(1, 0, 10, 4, &filled(10, 4)).unwrap();
        let pin = s.pin(h);
        let mut acc = vec![0.0f32; 4];
        pin.sum_row(1, &mut acc);
        let base = s.stats();
        pin.sum_row(1, &mut acc); // hit
        pin.sum_row(2, &mut acc); // miss
        let delta = s.stats().since(&base);
        assert_eq!(delta.lookups, 2);
        assert_eq!(delta.cache_hits, 1);
        assert_eq!(delta.cache_misses, 1);
        assert_eq!(delta.rows, 10); // gauge: absolute, not delta
        assert!((delta.hit_rate() - 0.5).abs() < 1e-12);
    }
}
