//! Models: the sync protocols the batch-dynamic forest maintainer
//! (st-core `dyn_forest`) adds on top of the workspace arena.
//!
//! Insertion waves union touched components with the CAS-hook idiom:
//! a rank first claims the smaller root's *hook cell* (CAS from EMPTY
//! to its edge index), and only the claim winner writes the union-find
//! parent. The claim makes the parent store exclusive; between claim
//! and store there is a window where the hook is taken but the parent
//! still reads EMPTY, which `find` must (and does) treat as "still a
//! root".
//!
//! Links go from a smaller root to a larger one, so every union-find
//! chain is strictly increasing. `find`'s path compression runs while
//! other ranks compress and link, and must keep that order: it may
//! only move an entry upward. A copy of the compression that wrote its
//! (possibly stale) root over any non-root entry closed 2-cycles and
//! hung the parallel insert; its model is kept as a seeded bug the
//! checker must find.
//!
//! Deletion's parallel replacement scan elects one crossing edge into a
//! shared `AtomicU64` slot (packed `(x << 32) | y`, `u64::MAX` = no
//! winner yet) via CAS-from-empty. The slot is write-once: scanners
//! poll it to stop early, and a failed CAS exposes the winner, so every
//! rank retires agreeing on the same replacement edge.

use st_smp::sync::atomic::{AtomicU64, Ordering};
use st_smp::sync::{model, thread, Arc};
use st_smp::AtomicU32Array;

/// The arena's EMPTY sentinel (`u32::MAX`), as used by dyn_forest for
/// both unclaimed hook cells and root union-find entries.
const EMPTY: u32 = u32::MAX;

/// Two ranks race to hook root 0 under two different larger roots.
/// Exactly one hook claim may win; only the winner stores the parent;
/// and any rank reading the parent afterwards sees either EMPTY (the
/// claim/store window — still a root to `find`) or the winner's value,
/// never the loser's.
#[test]
fn hook_claim_makes_the_parent_store_exclusive() {
    model(|| {
        // hooks[0] guards root 0; uf holds three roots (all EMPTY).
        let hooks = Arc::new(AtomicU32Array::new(1, EMPTY));
        let uf = Arc::new(AtomicU32Array::new(3, EMPTY));

        let handles: Vec<_> = [(1u32, 7u32), (2u32, 9u32)]
            .into_iter()
            .map(|(parent, edge)| {
                let hooks = Arc::clone(&hooks);
                let uf = Arc::clone(&uf);
                thread::spawn(move || {
                    if hooks.try_claim(0, EMPTY, edge) {
                        // The claim is exclusive, so the parent store
                        // needs no CAS — Release pairs with the readers'
                        // Acquire loads in `find`.
                        uf.store(0, parent, Ordering::Release);
                        (Some((parent, edge)), uf.load(0, Ordering::Acquire))
                    } else {
                        // The loser walks away; its `find` keeps
                        // treating whatever it reads as the truth.
                        (None, uf.load(0, Ordering::Acquire))
                    }
                })
            })
            .collect();

        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let winners: Vec<(u32, u32)> = results.iter().filter_map(|(w, _)| *w).collect();
        assert_eq!(winners.len(), 1, "exactly one hook claim must win");
        let (won_parent, won_edge) = winners[0];
        assert_eq!(
            hooks.load(0, Ordering::Acquire),
            won_edge,
            "the hook cell must record the winning edge"
        );
        assert_eq!(
            uf.load(0, Ordering::Acquire),
            won_parent,
            "the parent must settle on the claim winner's root"
        );
        for (won, observed) in &results {
            if won.is_none() {
                // The window between claim and store may expose EMPTY
                // (root 0 still its own root); it must never expose a
                // value nobody stored.
                assert!(
                    *observed == EMPTY || *observed == won_parent,
                    "loser observed parent {observed} that no winner stored"
                );
            }
        }
    });
}

/// `dyn_forest::find`: walk to the root, then compress the path behind
/// it, stepping only while an entry is still below the root. Anything
/// `>= root` (the root itself, EMPTY, or an entry another rank already
/// compressed past a root that has since been linked) stops the walk.
fn find(uf: &AtomicU32Array, start: u32) -> u32 {
    let mut root = start;
    loop {
        let p = uf.load(root as usize, Ordering::Acquire);
        if p == EMPTY {
            break;
        }
        root = p;
    }
    let mut cur = start;
    loop {
        let p = uf.load(cur as usize, Ordering::Acquire);
        if p >= root {
            break;
        }
        uf.store(cur as usize, root, Ordering::Release);
        cur = p;
    }
    root
}

/// The compression `find` used to run: it wrote `root` over every
/// entry that was neither EMPTY nor `root`, including one already
/// compressed past a stale `root`, pointing that entry downward.
fn find_unguarded(uf: &AtomicU32Array, start: u32) -> u32 {
    let mut root = start;
    loop {
        let p = uf.load(root as usize, Ordering::Acquire);
        if p == EMPTY {
            break;
        }
        root = p;
    }
    let mut cur = start;
    while cur != root {
        let p = uf.load(cur as usize, Ordering::Acquire);
        if p == EMPTY || p == root {
            break;
        }
        uf.store(cur as usize, root, Ordering::Release);
        cur = p;
    }
    root
}

/// Two ranks run `find(0)` with compression while a third links root
/// 1 under 2 and then 2 under 3 (start state `uf[0] = 1`). Whatever the
/// interleaving, every entry must still point upward afterwards
/// (`uf[i] > i` or EMPTY), so no chain can loop.
fn compress_while_linking(find: fn(&AtomicU32Array, u32) -> u32) {
    model(move || {
        let uf = Arc::new(AtomicU32Array::new(4, EMPTY));
        uf.store(0, 1, Ordering::Relaxed);
        let finders: Vec<_> = (0..2)
            .map(|_| {
                let uf = Arc::clone(&uf);
                thread::spawn(move || find(&uf, 0))
            })
            .collect();
        let linker = {
            let uf = Arc::clone(&uf);
            thread::spawn(move || {
                uf.store(1, 2, Ordering::Release);
                uf.store(2, 3, Ordering::Release);
            })
        };
        linker.join().unwrap();
        for f in finders {
            let root = f.join().unwrap();
            assert!((1..=3).contains(&root), "find(0) returned {root}");
        }
        for i in 0..4u32 {
            let p = uf.load(i as usize, Ordering::Acquire);
            assert!(p == EMPTY || p > i, "uf[{i}] = {p} points downward");
        }
    });
}

#[test]
fn find_compression_only_moves_entries_upward() {
    compress_while_linking(find);
}

/// The checker must catch the unguarded compression: one rank reads
/// root 1, the other compresses `uf[0]` to 2 after the first link, the
/// second link lands, and the first rank writes 1 over `uf[2]`.
#[test]
#[should_panic(expected = "points downward")]
fn unguarded_find_compression_is_caught() {
    compress_while_linking(find_unguarded);
}

/// Replacement-edge election sentinel: no winner yet.
const NO_WINNER: u64 = u64::MAX;

/// Packs a crossing edge the way the replacement scan does.
fn pack(x: u32, y: u32) -> u64 {
    (u64::from(x) << 32) | u64::from(y)
}

/// Two scanners each find a crossing edge and CAS it into the shared
/// election slot while a third rank polls the slot (the every-16-pops
/// early-exit check). The slot is write-once from NO_WINNER, so every
/// rank — winner, CAS loser, and poller — must retire agreeing on the
/// single settled edge.
#[test]
fn replacement_election_elects_exactly_one_edge() {
    model(|| {
        let slot = Arc::new(AtomicU64::new(NO_WINNER));

        let scanners: Vec<_> = [pack(1, 2), pack(3, 4)]
            .into_iter()
            .map(|candidate| {
                let slot = Arc::clone(&slot);
                thread::spawn(move || {
                    match slot.compare_exchange(
                        NO_WINNER,
                        candidate,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => candidate,
                        Err(seen) => {
                            // A failed CAS exposes the winner, and the
                            // scanner stops with that edge.
                            assert_ne!(seen, NO_WINNER, "failed CAS must expose the winner");
                            seen
                        }
                    }
                })
            })
            .collect();
        let poller = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || slot.load(Ordering::Acquire))
        };

        let agreed: Vec<u64> = scanners.into_iter().map(|h| h.join().unwrap()).collect();
        let polled = poller.join().unwrap();
        let settled = slot.load(Ordering::Acquire);
        assert!(
            settled == pack(1, 2) || settled == pack(3, 4),
            "slot settled on an edge nobody proposed"
        );
        for edge in agreed {
            assert_eq!(edge, settled, "a scanner retired with a different edge");
        }
        // The slot is write-once: a poll sees NO_WINNER (keep scanning)
        // or the final edge, never a value that later changes.
        assert!(
            polled == NO_WINNER || polled == settled,
            "poller observed a non-final winner"
        );
    });
}
