//! Model-checked interleaving tests for the serving hot path: batcher
//! admission/eviction/drain, the overload ladder's stepwise
//! transitions, the dispatch-signal parking protocol, and the
//! prefetcher-style job handoff.
//!
//! Compiled out of plain builds (`#![cfg(loom)]`): without `--cfg loom`
//! the drec-sync primitives carry no schedule points, so the explorer
//! would see one schedule. CI runs this suite with
//! `RUSTFLAGS="--cfg loom" cargo test -p drec-serve --test loom_serve`.
//!
//! Time-dependent branches are pinned: `max_wait` is always
//! `Duration::ZERO` (a queued request is instantly releasable, so no
//! coalescing deadline depends on the wall clock) and `delay_budget` is
//! huge (admission never sheds on estimated delay, only on depth).
#![cfg(loom)]

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use drec_serve::{
    BatchPoll, BatcherConfig, DegradeConfig, DispatchSignal, OverloadLadder, OverloadLevel,
    Priority, Request, SharedQueue, SubmitOptions,
};
use drec_sync::model::model;
use drec_sync::thread::{spawn, yield_now};

fn cfg(max_batch: usize, capacity: usize) -> BatcherConfig {
    BatcherConfig {
        max_batch,
        max_wait: Duration::ZERO,
        queue_capacity: capacity,
        delay_budget: Duration::from_secs(3600),
        per_query_service_estimate: 0.0,
    }
}

fn queue_of(c: BatcherConfig, signal: Option<Arc<DispatchSignal>>) -> SharedQueue {
    let ladder = Arc::new(OverloadLadder::new(
        DegradeConfig::default(),
        c.queue_capacity,
        None,
    ));
    SharedQueue::with_signal(c, ladder, signal)
}

fn request(id: u64, priority: Priority) -> Request {
    Request::new(
        id,
        Vec::new(),
        SubmitOptions {
            deadline: None,
            priority,
        },
    )
    .0
}

/// A producer racing a drain loop: every admitted request comes out of
/// the queue exactly once, in every interleaving.
#[test]
fn concurrent_push_and_drain_deliver_every_request() {
    model(|| {
        let q = Arc::new(queue_of(cfg(8, 100), None));
        let producer = {
            let q = Arc::clone(&q);
            spawn(move || {
                for id in 0..2 {
                    q.try_push(request(id, Priority::Normal)).unwrap();
                }
            })
        };
        let mut got = Vec::new();
        while got.len() < 2 {
            match q.try_next_batch() {
                BatchPoll::Ready(batch) => {
                    assert!(batch.expired.is_empty(), "no deadlines were set");
                    got.extend(batch.requests.iter().map(|r| r.id));
                }
                BatchPoll::Idle | BatchPoll::Coalescing(_) => yield_now(),
                BatchPoll::Closed => panic!("queue closed while open"),
            }
        }
        producer.join().unwrap();
        assert_eq!(got, vec![0, 1], "lost or reordered");
        assert_eq!(q.depth(), 0);
    });
}

/// Close racing a straggler push: the request is either rejected at
/// admission or survives into the teardown drain — never silently gone.
/// This is the race the runtime's supervisor covers with its
/// unconditional final `close(); drain_all()` sweep.
#[test]
fn close_racing_push_never_loses_a_request() {
    model(|| {
        let q = Arc::new(queue_of(cfg(8, 100), None));
        let producer = {
            let q = Arc::clone(&q);
            spawn(move || q.try_push(request(7, Priority::Normal)).is_ok())
        };
        q.close();
        let admitted = producer.join().unwrap();
        let drained: Vec<u64> = q.drain_all().iter().map(|r| r.id).collect();
        if admitted {
            assert_eq!(drained, vec![7], "admitted then lost");
        } else {
            assert!(drained.is_empty(), "shed yet queued");
        }
    });
}

/// Two high-priority arrivals hammering a full queue of low-priority
/// work: whatever mix of evictions and sheds the schedule produces,
/// every request is accounted for exactly once (queued, evicted, or
/// shed) and the queue never exceeds its capacity.
#[test]
fn concurrent_eviction_conserves_every_request() {
    model(|| {
        let q = Arc::new(queue_of(cfg(8, 2), None));
        q.try_push(request(0, Priority::Low)).unwrap();
        q.try_push(request(1, Priority::Low)).unwrap();
        let pushers: Vec<_> = [2u64, 3u64]
            .into_iter()
            .map(|id| {
                let q = Arc::clone(&q);
                spawn(move || match q.try_push(request(id, Priority::High)) {
                    Ok(None) => (None, None),
                    Ok(Some((victim, _err))) => (Some(victim.id), None),
                    Err((shed, _err)) => (None, Some(shed.id)),
                })
            })
            .collect();
        let mut seen = BTreeSet::new();
        for t in pushers {
            let (victim, shed) = t.join().unwrap();
            for id in victim.into_iter().chain(shed) {
                assert!(seen.insert(id), "{id} accounted twice");
            }
        }
        assert!(q.depth() <= 2, "queue over capacity");
        q.close();
        for r in q.drain_all() {
            assert!(seen.insert(r.id), "{} accounted twice", r.id);
        }
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "a request vanished"
        );
    });
}

/// Concurrent observers of a saturated queue walk the ladder one rung at
/// a time: each transition happens exactly once however the CAS races
/// resolve, and recovery steps back down through the same rungs.
#[test]
fn overload_ladder_transitions_exactly_once_under_contention() {
    model(|| {
        let ladder = Arc::new(OverloadLadder::new(DegradeConfig::default(), 10, None));
        let observers: Vec<_> = (0..2)
            .map(|_| {
                let ladder = Arc::clone(&ladder);
                spawn(move || ladder.observe(10))
            })
            .collect();
        for t in observers {
            t.join().unwrap();
        }
        assert_eq!(ladder.level(), OverloadLevel::CacheOnly);
        ladder.observe(0);
        assert_eq!(ladder.level(), OverloadLevel::Normal);
        assert_eq!(
            ladder.transition_counts(),
            (1, 1, 1, 1, 1, 1),
            "each rung must be crossed exactly once in each direction"
        );
    });
}

/// The CPU-worker parking protocol from `drec-sched`: read the signal
/// generation, poll, and only then wait. A push landing anywhere in that
/// window must not strand the dispatcher.
#[test]
fn dispatch_signal_parking_never_strands_the_dispatcher() {
    model(|| {
        let signal = Arc::new(DispatchSignal::new());
        let q = Arc::new(queue_of(cfg(8, 100), Some(Arc::clone(&signal))));
        let producer = {
            let q = Arc::clone(&q);
            spawn(move || q.try_push(request(0, Priority::Normal)).unwrap())
        };
        let batch = loop {
            let seen = signal.generation();
            match q.try_next_batch() {
                BatchPoll::Ready(batch) => break batch,
                BatchPoll::Idle => {
                    signal.wait(seen, None);
                }
                BatchPoll::Coalescing(deadline) => {
                    signal.wait(seen, Some(deadline));
                }
                BatchPoll::Closed => panic!("queue closed while open"),
            }
        };
        producer.join().unwrap();
        assert_eq!(batch.requests.len(), 1);
        assert_eq!(batch.requests[0].id, 0);
    });
}

/// The prefetch-fill/row-update race from `drec-store`/`drec-tier`,
/// modelled on loom-aware primitives (the tier's own clock lock is a
/// std mutex, which loom cannot preempt inside): a filler captures the
/// table's write stamp, reads the row, and inserts residency only if
/// the stamp is unchanged *under the residency lock*; the updater
/// rewrites the row, bumps the stamp, and then invalidates under the
/// same lock. In every interleaving the end state must be either
/// not-resident or resident-with-post-update bytes — a stale
/// pre-update fill can never survive, which is exactly the
/// `prefetch_fill_if` verify contract.
///
/// The write-then-bump order in the updater is load-bearing, and this
/// model is what caught it: bumping *before* the rewrite (the obvious
/// "stamp first so fills abort" order) lets a filler capture the
/// post-bump stamp, read the pre-update bytes, pass its verify, and
/// insert after the updater's invalidation has already run — parking
/// stale bytes forever. Flipping the first two updater steps below
/// reproduces the failure.
#[test]
fn prefetch_fill_verify_never_parks_stale_bytes() {
    use drec_sync::atomic::{AtomicU64, Ordering};
    use drec_sync::Mutex;
    model(|| {
        let stamp = Arc::new(AtomicU64::new(0)); // table.write_stamp
        let row = Arc::new(AtomicU64::new(1)); // the row's bytes (v0)
        let resident: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));

        let filler = {
            let (stamp, row, resident) =
                (Arc::clone(&stamp), Arc::clone(&row), Arc::clone(&resident));
            spawn(move || {
                // store::prefetch_row: capture the stamp, then fill.
                let captured = stamp.load(Ordering::Acquire);
                let bytes = row.load(Ordering::Acquire);
                // tier::prefetch_fill_if: verify runs under the
                // residency lock, immediately before the insert.
                let mut slot = resident.lock();
                if stamp.load(Ordering::Acquire) == captured {
                    *slot = Some(bytes);
                }
            })
        };
        let updater = {
            let (stamp, row, resident) =
                (Arc::clone(&stamp), Arc::clone(&row), Arc::clone(&resident));
            spawn(move || {
                // store::write_row: rewrite, THEN bump the stamp...
                row.store(2, Ordering::Release);
                stamp.fetch_add(1, Ordering::Release);
                // ...then invalidate under the same residency lock.
                *resident.lock() = None;
            })
        };
        filler.join().unwrap();
        updater.join().unwrap();
        let end_state = *resident.lock();
        if let Some(bytes) = end_state {
            assert_eq!(
                bytes, 2,
                "a resident row must carry post-update bytes — the stale \
                 pre-update fill survived the verify"
            );
        }
    });
}

/// Weight mailbox under contention: a poster publishing versions 1 and
/// 2 races two polling readers. Newest-wins must hold (no reader
/// installs an older set after a newer one), and once both readers have
/// drained the mailbox the channel's min-installed version is exactly
/// the newest posted.
#[test]
fn update_mailbox_is_newest_wins_under_contention() {
    use drec_serve::{ModelUpdateChannel, WeightSet};
    model(|| {
        let channel = Arc::new(ModelUpdateChannel::new("m", 1, None));
        let readers: Vec<usize> = (0..2).map(|_| channel.register_reader()).collect();
        let poster = {
            let channel = Arc::clone(&channel);
            spawn(move || {
                for version in 1..=2 {
                    channel.post_weights(Arc::new(WeightSet {
                        version,
                        layers: Vec::new(),
                    }));
                    channel.publish_version(version);
                }
            })
        };
        let pollers: Vec<_> = readers
            .iter()
            .map(|&reader| {
                let channel = Arc::clone(&channel);
                spawn(move || {
                    let mut installed = 0;
                    for _ in 0..2 {
                        if let Some(ws) = channel.poll_weights(installed) {
                            assert!(ws.version > installed, "mailbox went backwards");
                            installed = ws.version;
                            channel.note_install(reader, installed);
                        }
                        yield_now();
                    }
                })
            })
            .collect();
        poster.join().unwrap();
        for p in pollers {
            p.join().unwrap();
        }
        // Quiesce: one final poll per reader drains whatever the races
        // left behind.
        for &reader in &readers {
            if let Some(ws) = channel.poll_weights(0) {
                channel.note_install(reader, ws.version);
            }
        }
        assert_eq!(channel.current_version(), 2);
        assert_eq!(channel.min_installed(), 2);
    });
}
