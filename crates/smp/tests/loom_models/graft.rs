//! Models: the termination protocol of the graft-and-shortcut loop that
//! SV, HCS and Borůvka share (st-core `sv::graft_and_shortcut`).
//!
//! Each iteration runs a hook phase of three steps with a team barrier
//! after each. A rank that hooked stamps the shared graft epoch with the
//! iteration number before the last barrier, and every rank then reads
//! "changed" as `epoch == iteration`. The next write to the epoch comes
//! two barriers later, so one slot is enough. If anything changed, the
//! ranks pointer-jump in shortcut rounds. A round's "again" flag is
//! stamped with a global round counter and read behind the round's one
//! barrier. The next round's store can then race that read, so round s
//! uses slot s mod 2. Rank 0 polls cancellation at the top of an
//! iteration and raises a shared abort flag, which every rank reads
//! behind the graft barrier.
//!
//! The model runs two ranks through scripted hooks and pointer jumps
//! (which rank changes something in which iteration or round) and
//! checks every schedule: both ranks make the same decision at every
//! read (changed, again, aborted), leave the loop in the same iteration
//! after the same number of rounds and barriers, and neither exits early
//! or hangs. A copy of the loop with a single shortcut slot is kept as a
//! seeded bug the checker must catch: a rank that changed something in
//! round s + 1 overwrites the slot before a slower rank reads round s.

use st_smp::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use st_smp::sync::{model, thread, Arc};
use st_smp::{BarrierToken, SenseBarrier};

/// No iteration or round has stamped the slot yet.
const NEVER: u64 = u64::MAX;
/// An unrecorded decision.
const UNSET: u64 = u64::MAX;
/// Decision slots: more than the runs below make.
const DECISIONS: usize = 8;

/// Who changes what, per rank.
#[derive(Clone, Copy)]
struct Script {
    /// Iterations in which the rank hooks a root.
    hooks: &'static [u64],
    /// Global shortcut rounds in which the rank jumps a pointer.
    jumps: &'static [u64],
}

/// State the ranks share.
struct Shared {
    barrier: SenseBarrier,
    graft_epoch: AtomicU64,
    shortcut_epoch: [AtomicU64; 2],
    aborted: AtomicBool,
    /// The k-th decision of the run, as the first rank to read it saw it.
    decisions: Vec<AtomicU64>,
}

impl Shared {
    /// Records decision `k`; the second rank to read it must agree.
    fn decide(&self, k: usize, what: &str, value: bool) {
        match self.decisions[k].compare_exchange(
            UNSET,
            u64::from(value),
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => {}
            Err(first) => assert_eq!(
                first,
                u64::from(value),
                "ranks disagree on decision {k} ({what})"
            ),
        }
    }
}

/// How a rank left the loop: (iterations, shortcut rounds, barriers).
type Exit = (u64, u64, u64);

/// One rank of the loop. `slots` is 2 for the real protocol and 1 for
/// the seeded bug; `cancel_at` makes rank 0 see cancellation at the top
/// of that iteration.
fn rank_loop(rank: usize, s: &Shared, script: Script, slots: u64, cancel_at: Option<u64>) -> Exit {
    let token = BarrierToken::new();
    let mut barriers = 0;
    let mut bar = || {
        s.barrier.wait(&token);
        barriers += 1;
    };
    let mut k = 0;
    let (mut iter, mut sc_stamp) = (0u64, 0u64);
    loop {
        if rank == 0 && cancel_at == Some(iter) {
            s.aborted.store(true, Ordering::Release);
        }
        bar(); // clear
        bar(); // offer
        if script.hooks.contains(&iter) {
            s.graft_epoch.store(iter, Ordering::Release);
        }
        bar(); // graft
        let aborted = s.aborted.load(Ordering::Acquire);
        s.decide(k, "aborted", aborted);
        k += 1;
        if aborted {
            break;
        }
        let changed = s.graft_epoch.load(Ordering::Acquire) == iter;
        s.decide(k, "changed", changed);
        k += 1;
        iter += 1;
        if !changed {
            break;
        }
        loop {
            let slot = &s.shortcut_epoch[(sc_stamp % slots) as usize];
            if script.jumps.contains(&sc_stamp) {
                slot.store(sc_stamp, Ordering::Release);
            }
            bar();
            let again = slot.load(Ordering::Acquire) == sc_stamp;
            s.decide(k, "again", again);
            k += 1;
            sc_stamp += 1;
            if !again {
                break;
            }
        }
    }
    (iter, sc_stamp, barriers)
}

/// Runs both ranks on `scripts` and checks they leave the loop together
/// at `expected`.
fn run(scripts: [Script; 2], slots: u64, cancel_at: Option<u64>, expected: Exit) {
    model(move || {
        let shared = Arc::new(Shared {
            barrier: SenseBarrier::new(2),
            graft_epoch: AtomicU64::new(NEVER),
            shortcut_epoch: [AtomicU64::new(NEVER), AtomicU64::new(NEVER)],
            aborted: AtomicBool::new(false),
            decisions: (0..DECISIONS).map(|_| AtomicU64::new(UNSET)).collect(),
        });
        let ranks: Vec<_> = scripts
            .into_iter()
            .enumerate()
            .map(|(rank, script)| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || rank_loop(rank, &shared, script, slots, cancel_at))
            })
            .collect();
        // A rank stuck at a barrier the other never reaches fails the
        // model as a deadlock here.
        for r in ranks {
            assert_eq!(
                r.join().unwrap(),
                expected,
                "a rank left the loop early or late"
            );
        }
    });
}

/// Rank 0 hooks in iteration 0 and jumps in rounds 0 and 1; rank 1
/// jumps in round 1 only. Iteration 0 takes three rounds (the last sees
/// no change), iteration 1 hooks nothing: two iterations, three rounds,
/// 3 × 2 + 3 barriers.
const SCRIPTS: [Script; 2] = [
    Script {
        hooks: &[0],
        jumps: &[0, 1],
    },
    Script {
        hooks: &[],
        jumps: &[1],
    },
];

#[test]
fn ranks_agree_on_every_decision_and_leave_together() {
    run(SCRIPTS, 2, None, (2, 3, 9));
}

#[test]
fn cancellation_is_seen_by_both_ranks_in_the_same_iteration() {
    // Rank 0 sees the token at the top of iteration 1; both ranks leave
    // behind that iteration's graft barrier, before reading "changed".
    run(SCRIPTS, 2, Some(1), (1, 3, 9));
}

/// The checker must catch a single shortcut slot: rank 0 stamps round 1
/// into the slot before rank 1 has read round 0's stamp, so rank 1 sees
/// no change and leaves the shortcut loop a round early.
#[test]
#[should_panic(expected = "ranks disagree")]
fn single_shortcut_slot_is_caught() {
    run(SCRIPTS, 1, None, (2, 3, 9));
}
