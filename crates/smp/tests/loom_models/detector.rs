//! Models: the §2 termination detector. The load-bearing property is
//! the *false-quiescence window*: `AllDone` must never be declared
//! while a published, stealable item still exists — even when
//! `notify_work` races the last sleeper's registration or a timeout
//! fires concurrently with a notification.

use std::collections::VecDeque;
use std::time::Duration;

use st_smp::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use st_smp::sync::{model, thread, Arc};
use st_smp::{IdleOutcome, StealPolicy, TerminationDetector, WorkQueue};

const TIMEOUT: Duration = Duration::from_millis(1);

/// Both processors go idle with nothing to do: every schedule must end
/// in `AllDone` on both, with every sleep paired with a wake.
#[test]
fn all_idle_reaches_all_done() {
    model(|| {
        let d = Arc::new(TerminationDetector::new(2));
        let d2 = Arc::clone(&d);
        let t = thread::spawn(move || loop {
            match d2.idle_wait(TIMEOUT) {
                IdleOutcome::AllDone => break,
                IdleOutcome::Retry => continue,
                IdleOutcome::Starved => panic!("starved without a threshold"),
            }
        });
        loop {
            match d.idle_wait(TIMEOUT) {
                IdleOutcome::AllDone => break,
                IdleOutcome::Retry => continue,
                IdleOutcome::Starved => panic!("starved without a threshold"),
            }
        }
        t.join().unwrap();
        assert!(d.is_done());
        let st = d.stats();
        assert_eq!(st.sleeps, st.wakes, "unpaired sleep registration");
        assert_eq!(st.starvation_trips, 0);
    });
}

/// The tentpole model: a faithful miniature of the traversal idle loop.
/// Processor 0 publishes one stealable item and calls `notify_work`;
/// both processors then run drain → steal-sweep → `idle_wait`. In every
/// schedule — including `notify_work` racing the other rank's sleep
/// registration — `AllDone` may only be declared once the item has been
/// consumed and both queues are exactly empty.
#[test]
fn all_done_never_declared_while_item_stealable() {
    model(|| {
        let queues = Arc::new([WorkQueue::new(), WorkQueue::new()]);
        let detector = Arc::new(TerminationDetector::new(2));
        let consumed = Arc::new(AtomicUsize::new(0));

        let worker = |rank: usize,
                      queues: Arc<[WorkQueue<u32>; 2]>,
                      detector: Arc<TerminationDetector>,
                      consumed: Arc<AtomicUsize>| {
            move || {
                if rank == 0 {
                    // Publish one unit of work, then tell sleepers.
                    queues[0].push(41);
                    detector.notify_work();
                }
                loop {
                    // Drain own queue.
                    while queues[rank].pop().is_some() {
                        consumed.fetch_add(1, Ordering::SeqCst);
                    }
                    // Deterministic steal sweep (exact check is inside
                    // steal_into's lock).
                    let mut out = VecDeque::new();
                    if queues[1 - rank].steal_into(&mut out, StealPolicy::Half) > 0 {
                        queues[rank].push_all(out);
                        continue;
                    }
                    match detector.idle_wait(TIMEOUT) {
                        IdleOutcome::AllDone => break,
                        IdleOutcome::Retry => continue,
                        IdleOutcome::Starved => panic!("starved without a threshold"),
                    }
                }
                // False-quiescence check: at AllDone nothing may remain
                // published anywhere.
                assert_eq!(queues[0].len(), 0, "AllDone with a stealable item");
                assert_eq!(queues[1].len(), 0, "AllDone with a stealable item");
                assert_eq!(
                    consumed.load(Ordering::SeqCst),
                    1,
                    "AllDone before the published item was consumed"
                );
            }
        };

        let t = thread::spawn(worker(
            1,
            Arc::clone(&queues),
            Arc::clone(&detector),
            Arc::clone(&consumed),
        ));
        worker(0, queues, Arc::clone(&detector), consumed)();
        t.join().unwrap();
        let st = detector.stats();
        assert_eq!(st.sleeps, st.wakes, "unpaired sleep registration");
    });
}

/// Timeout firing concurrently with `notify_work`: whichever way the
/// race lands (timed_out, epoch-changed, or both at once), the sleeper
/// must get `Retry` — never a spurious verdict — and the books must
/// balance.
#[test]
fn timeout_racing_notify_work_yields_retry() {
    model(|| {
        let d = Arc::new(TerminationDetector::new(2));
        let d2 = Arc::clone(&d);
        let busy = thread::spawn(move || {
            d2.notify_work();
        });
        // With p = 2 and the other processor never sleeping, the only
        // legal outcome is Retry (via timeout, via the notify, or both).
        assert_eq!(d.idle_wait(TIMEOUT), IdleOutcome::Retry);
        busy.join().unwrap();
        assert!(!d.is_done());
        assert!(!d.is_starved());
        let st = d.stats();
        assert_eq!(st.sleeps, 1);
        assert_eq!(st.wakes, 1);
    });
}

/// The traversal's cancellation exit: the rank that sees the token
/// fire sets a shared flag, then calls `notify_work`; an idle rank
/// checks the flag before each `idle_wait`. In every schedule the
/// idle rank leaves through the flag, never through a verdict (its
/// peer never sleeps), and every sleep is paired with a wake.
#[test]
fn cancel_flag_releases_an_idle_rank() {
    model(|| {
        let d = Arc::new(TerminationDetector::new(2));
        let aborted = Arc::new(AtomicBool::new(false));
        let (d2, aborted2) = (Arc::clone(&d), Arc::clone(&aborted));
        let idle = thread::spawn(move || {
            while !aborted2.load(Ordering::Relaxed) {
                let outcome = d2.idle_wait(TIMEOUT);
                assert_eq!(outcome, IdleOutcome::Retry, "verdict while a peer is awake");
            }
        });
        aborted.store(true, Ordering::Relaxed);
        d.notify_work();
        idle.join().unwrap();
        assert!(!d.is_done());
        let st = d.stats();
        assert_eq!(st.sleeps, st.wakes, "unpaired sleep registration");
    });
}

/// Starvation threshold 1 with one processor forever busy: the idle
/// processor must starve (never AllDone), exactly one trip is counted,
/// and late callers see the sticky verdict.
#[test]
fn threshold_trips_starvation_once() {
    model(|| {
        let d = Arc::new(TerminationDetector::with_threshold(2, 1));
        let d2 = Arc::clone(&d);
        let idle = thread::spawn(move || {
            assert_eq!(d2.idle_wait(TIMEOUT), IdleOutcome::Starved);
            // Sticky for late callers.
            assert_eq!(d2.idle_wait(TIMEOUT), IdleOutcome::Starved);
        });
        idle.join().unwrap();
        assert!(d.is_starved());
        assert!(!d.is_done());
        let st = d.stats();
        assert_eq!(st.starvation_trips, 1);
        assert_eq!(st.sleeps, st.wakes);
    });
}

/// A reset between rounds on a quiescent detector must rearm it: a
/// second round reaches AllDone again and keeps cumulative stats.
#[test]
fn reset_rearms_between_rounds() {
    model(|| {
        let d = Arc::new(TerminationDetector::new(2));
        for round in 1..=2u64 {
            let d2 = Arc::clone(&d);
            let t = thread::spawn(move || loop {
                match d2.idle_wait(TIMEOUT) {
                    IdleOutcome::AllDone => break,
                    IdleOutcome::Retry => continue,
                    IdleOutcome::Starved => panic!("starved without a threshold"),
                }
            });
            loop {
                match d.idle_wait(TIMEOUT) {
                    IdleOutcome::AllDone => break,
                    IdleOutcome::Retry => continue,
                    IdleOutcome::Starved => panic!("starved without a threshold"),
                }
            }
            t.join().unwrap();
            assert!(d.is_done(), "round {round} did not quiesce");
            d.reset();
            assert!(!d.is_done());
        }
        let st = d.stats();
        assert_eq!(st.sleeps, st.wakes);
    });
}
