//! Models: the claims on the traversal's visited bitmap (st-core
//! `traversal`), top-down and bottom-up; the bottom-up sweep protocol
//! of the direction-optimizing traversal (`bottom_up_phase`); and the
//! CAS-from-clean abort-byte rendezvous that gets the team there.
//!
//! The sweep protocol under test: a leader-written control word decides
//! each sweep in the window between the sweep-end barrier and the next
//! sweep-start barrier (followers never read the claim tally directly —
//! that read would race the leader's reset); the chunk cursor hands
//! each vertex to exactly one rank per sweep, which is why the claim is
//! a *relaxed* `fetch_or` that cannot lose a race; and the sweep-end
//! barrier is the sole publication point those relaxed claims rely on.
//! All vertices of each model share one bitmap word, so a claim that
//! was a plain load-and-store of the word would lose bits.

use std::sync::atomic::AtomicBool;

use st_smp::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use st_smp::sync::{model, thread, Arc};
use st_smp::{AtomicBitmap, BarrierToken, SenseBarrier};

const CTL_RUN: u8 = 0;
const CTL_DONE: u8 = 1;

/// Two ranks sweep a 3-vertex chain (vertex 0 pre-seeded) bottom-up
/// until a sweep claims nothing. Every schedule must uphold the real
/// protocol's invariants: each vertex is claimed at most once (cursor
/// exclusivity), each rank observes every earlier sweep's relaxed
/// claims after the sweep-end barrier, both ranks take the same number
/// of sweeps (uniform leader-decided termination), and the chain ends
/// fully colored — no rank's `fetch_or` erased another's bit in the
/// shared word.
#[test]
fn bottom_up_sweeps_claim_once_and_publish_through_barrier() {
    model(|| {
        const N: usize = 3;
        let colored = Arc::new(AtomicBitmap::new(N));
        colored.set(0, Ordering::Release); // the seed vertex
        let barrier = Arc::new(SenseBarrier::new(2));
        let cursor = Arc::new(AtomicUsize::new(0));
        let sweep_claims = Arc::new(AtomicUsize::new(0));
        let sweep_ctl = Arc::new(AtomicU8::new(CTL_RUN));
        let claim_counts: Arc<Vec<AtomicUsize>> =
            Arc::new((0..N).map(|_| AtomicUsize::new(0)).collect());

        let handles: Vec<_> = (0..2usize)
            .map(|rank| {
                let colored = Arc::clone(&colored);
                let barrier = Arc::clone(&barrier);
                let cursor = Arc::clone(&cursor);
                let sweep_claims = Arc::clone(&sweep_claims);
                let sweep_ctl = Arc::clone(&sweep_ctl);
                let claim_counts = Arc::clone(&claim_counts);
                thread::spawn(move || {
                    let token = BarrierToken::new();
                    let mut sweeps = 0usize;
                    let mut first = true;
                    loop {
                        if rank == 0 {
                            // Decision window: only the leader reads the
                            // tally, then resets per-sweep state. No
                            // follower touches any of it until after the
                            // sweep-start barrier below.
                            let ctl = if !first && sweep_claims.load(Ordering::Relaxed) == 0 {
                                CTL_DONE
                            } else {
                                CTL_RUN
                            };
                            cursor.store(0, Ordering::Relaxed);
                            sweep_claims.store(0, Ordering::Relaxed);
                            sweep_ctl.store(ctl, Ordering::Relaxed);
                        }
                        first = false;
                        barrier.wait(&token); // sweep start: ctl published
                        if sweep_ctl.load(Ordering::Relaxed) == CTL_DONE {
                            return sweeps;
                        }
                        // Visibility: every vertex claimed in an earlier
                        // sweep must be readable now, through Relaxed
                        // loads — the barriers are the only ordering.
                        for v in 0..N {
                            if claim_counts[v].load(Ordering::SeqCst) > 0 {
                                assert!(
                                    colored.get(v, Ordering::Relaxed),
                                    "earlier sweep's claim of {v} not visible after barrier"
                                );
                            }
                        }
                        let mut local = 0usize;
                        loop {
                            let v = cursor.fetch_add(1, Ordering::Relaxed);
                            if v >= N {
                                break;
                            }
                            if colored.get(v, Ordering::Relaxed) {
                                continue;
                            }
                            let visited_neighbor = (v > 0 && colored.get(v - 1, Ordering::Relaxed))
                                || (v + 1 < N && colored.get(v + 1, Ordering::Relaxed));
                            if visited_neighbor {
                                // The cursor handed v to this rank
                                // exclusively: the claim cannot lose, so
                                // a relaxed fetch_or suffices.
                                assert!(
                                    colored.set(v, Ordering::Relaxed),
                                    "an exclusively handed vertex was already set"
                                );
                                claim_counts[v].fetch_add(1, Ordering::SeqCst);
                                local += 1;
                            }
                        }
                        if local > 0 {
                            sweep_claims.fetch_add(local, Ordering::Relaxed);
                        }
                        sweeps += 1;
                        assert!(sweeps <= N + 1, "sweeps failed to converge");
                        barrier.wait(&token); // sweep end: claims published
                    }
                })
            })
            .collect();

        let sweep_counts: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            sweep_counts[0], sweep_counts[1],
            "ranks disagreed on the sweep count"
        );
        // Chain 0-1-2 from seed 0: claims may propagate one hop per
        // sweep (vertex 2 waits for sweep 2) or ride a same-sweep claim
        // of vertex 1 — both benign, any visited vertex is a valid
        // parent — plus one final empty sweep to detect quiescence.
        assert!(
            sweep_counts[0] == 2 || sweep_counts[0] == 3,
            "unexpected sweep count {}",
            sweep_counts[0]
        );
        for v in 0..N {
            let claims = claim_counts[v].load(Ordering::SeqCst);
            assert!(claims <= 1, "vertex {v} claimed {claims} times");
            assert!(colored.get(v, Ordering::Relaxed), "vertex {v} lost");
        }
    });
}

/// Set once any schedule of the next model has a rank lose a claim at
/// its `fetch_or` (so the model provably reaches the collision).
static LOSS_SEEN: AtomicBool = AtomicBool::new(false);

/// Two ranks' top-down claims on one bitmap word: rank 0 claims
/// vertices 0 and 1, rank 1 claims 1 and 2 — a contested bit between
/// two neighbouring uncontested ones. Each claim is the traversal's
/// test then `fetch_or`. Every schedule must give each bit exactly one
/// winner and leave all three set (no `fetch_or` erased a neighbour's
/// bit), and a rank that passed the test but lost the `fetch_or` must
/// count the collision (`multi_colored`): each rank that tried the
/// contested bit either won it, counted a loss, or saw it already set.
#[test]
fn top_down_claims_on_one_word_have_one_winner_and_count_the_loser() {
    model(|| {
        let colored = Arc::new(AtomicBitmap::new(3));
        let handles: Vec<_> = [[0usize, 1], [1, 2]]
            .into_iter()
            .map(|targets| {
                let colored = Arc::clone(&colored);
                thread::spawn(move || {
                    let (mut won, mut multi_colored, mut skipped) = (Vec::new(), 0usize, 0usize);
                    for v in targets {
                        if colored.get(v, Ordering::Acquire) {
                            skipped += 1;
                        } else if colored.set(v, Ordering::AcqRel) {
                            won.push(v);
                        } else {
                            multi_colored += 1;
                        }
                    }
                    (won, multi_colored, skipped)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let mut winners = [0usize; 3];
        for (won, _, _) in &results {
            for &v in won {
                winners[v] += 1;
            }
        }
        assert_eq!(winners, [1, 1, 1], "a bit had no winner or two");
        for v in 0..3 {
            assert!(colored.get(v, Ordering::Relaxed), "bit {v} lost");
        }
        // Only vertex 1 is contested: two attempts, one winner, and the
        // other attempt is a counted loss or a test that saw the bit.
        let counted: usize = results.iter().map(|r| r.1).sum();
        let skipped: usize = results.iter().map(|r| r.2).sum();
        assert_eq!(counted + skipped, 1, "the losing attempt went unaccounted");
        if counted == 1 {
            LOSS_SEEN.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    });
    assert!(
        LOSS_SEEN.load(std::sync::atomic::Ordering::Relaxed),
        "no schedule had both ranks pass the test before either fetch_or"
    );
}

const ABORT_NONE: u8 = 0;
const ABORT_CANCELLED: u8 = 2;
const ABORT_SWITCH: u8 = 3;

/// The abort-byte rendezvous: one rank raises a direction switch while
/// another raises a cancellation, both via CAS-from-clean. Exactly one
/// transition may win, and the loser must observe and follow the
/// winner's value — the invariant that keeps every rank heading to the
/// same place (the switch barrier or the cancelled exit).
#[test]
fn abort_byte_single_writer_wins_and_loser_follows() {
    model(|| {
        let abort = Arc::new(AtomicU8::new(ABORT_NONE));
        let handles: Vec<_> = [ABORT_SWITCH, ABORT_CANCELLED]
            .into_iter()
            .map(|mine| {
                let abort = Arc::clone(&abort);
                thread::spawn(move || {
                    match abort.compare_exchange(
                        ABORT_NONE,
                        mine,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => mine,
                        Err(actual) => {
                            assert_ne!(actual, ABORT_NONE, "failed CAS must expose the winner");
                            actual
                        }
                    }
                })
            })
            .collect();
        let followed: Vec<u8> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let settled = abort.load(Ordering::Acquire);
        assert!(settled == ABORT_SWITCH || settled == ABORT_CANCELLED);
        for f in followed {
            assert_eq!(
                f, settled,
                "a rank followed a value the byte never settled on"
            );
        }
    });
}

/// The round driver's budgeted stub walk: while the other rank is
/// parked at the round barrier, the driver claims vertices 0–2 with
/// relaxed `fetch_or`s, keeps 0 as the stub and releases 1 and 2 with
/// relaxed `fetch_and`s; vertex 3 belongs to an earlier round and
/// shares the word. After the barrier both ranks race top-down claims
/// on every vertex: each released vertex must have exactly one winner,
/// and neither the kept vertex nor the earlier round's may be claimed
/// again (a release must not erase a neighbouring bit).
#[test]
fn driver_walk_releases_its_tail_through_the_round_barrier() {
    model(|| {
        const N: usize = 4;
        let colored = Arc::new(AtomicBitmap::new(N));
        colored.set(3, Ordering::Release); // an earlier round's vertex
        let barrier = Arc::new(SenseBarrier::new(2));
        let wins: Arc<Vec<AtomicUsize>> = Arc::new((0..N).map(|_| AtomicUsize::new(0)).collect());
        let handles: Vec<_> = (0..2usize)
            .map(|rank| {
                let colored = Arc::clone(&colored);
                let barrier = Arc::clone(&barrier);
                let wins = Arc::clone(&wins);
                thread::spawn(move || {
                    let token = BarrierToken::new();
                    if rank == 0 {
                        for v in 0..3 {
                            assert!(colored.set(v, Ordering::Relaxed), "walk claimed {v} twice");
                        }
                        for v in 1..3 {
                            assert!(
                                colored.clear(v, Ordering::Relaxed),
                                "released {v} unclaimed"
                            );
                        }
                    }
                    barrier.wait(&token); // round start: the walk is published
                    for v in 0..N {
                        if colored.set(v, Ordering::AcqRel) {
                            wins[v].fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let wins: Vec<usize> = wins.iter().map(|w| w.load(Ordering::SeqCst)).collect();
        assert_eq!(wins, vec![0, 1, 1, 0], "claims after the round barrier");
        assert_eq!(colored.next_clear(0, N), None);
    });
}
