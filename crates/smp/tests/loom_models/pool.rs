//! Loom models for the executor pool's core budget.
//!
//! A lease takes cores from the budget and an idle executor of the
//! chosen width under the pool lock; the return gives both back under
//! the same lock and wakes every waiter. The properties the models
//! check:
//!
//! * the budget holds: concurrent leases never hold more than `C` cores
//!   in total, so no more than `C` ranks ever run at once;
//! * cores and executors are conserved: any interleaving of lease,
//!   return and a panicking lessee ends with every core free and every
//!   executor idle, exactly once;
//! * no lost wake-up: a lease that waits for a core is woken by the
//!   return that frees one.

use st_smp::sync::atomic::{AtomicUsize, Ordering};
use st_smp::sync::{model, thread, Arc};
use st_smp::{ladder, ExecutorPool};

#[test]
fn concurrent_leases_never_exceed_the_budget() {
    model(|| {
        let pool = Arc::new(ExecutorPool::new(ladder(2)));
        let held = Arc::new(AtomicUsize::new(0));
        let lessees: Vec<_> = [2, 1]
            .into_iter()
            .map(|want| {
                let (pool, held) = (Arc::clone(&pool), Arc::clone(&held));
                thread::spawn(move || {
                    let lease = pool.lease(want);
                    assert!(lease.size() <= want, "a lease wider than its request");
                    // Counted after the lease and uncounted before the
                    // return, so `held` never exceeds what leases hold.
                    let now = held.fetch_add(lease.size(), Ordering::SeqCst) + lease.size();
                    assert!(now <= 2, "leases hold {now} cores of a 2-core budget");
                    held.fetch_sub(lease.size(), Ordering::SeqCst);
                    drop(lease);
                })
            })
            .collect();
        for t in lessees {
            t.join().unwrap();
        }
        assert_eq!(pool.free_cores(), 2);
        assert_eq!(pool.idle_executors(), 3);
    });
}

#[test]
fn cores_and_executors_survive_a_panicking_lessee() {
    model(|| {
        let pool = Arc::new(ExecutorPool::new(ladder(2)));
        let p2 = Arc::clone(&pool);
        let panicker = thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let lease = p2.lease(1);
                lease.run(|_| panic!("tenant bug"));
            }));
            assert!(r.is_err(), "the panic must reach the lessee");
        });
        // A concurrent lessee: it gets whatever the panicking one left.
        let lease = pool.lease(2);
        assert!(lease.size() >= 1);
        drop(lease);
        panicker.join().unwrap();

        assert_eq!(pool.free_cores(), 2, "every core comes back");
        assert_eq!(pool.idle_executors(), 3, "every executor comes back once");
        let all = pool.try_lease(2).expect("the whole budget is free");
        assert_eq!(all.size(), 2);
        drop(all);
    });
}

#[test]
fn a_waiting_lease_is_woken_by_a_return() {
    model(|| {
        let pool = Arc::new(ExecutorPool::new(ladder(1)));
        let lease = pool.lease(1);
        let p2 = Arc::clone(&pool);
        // Either it finds the core already back, or it waits and the
        // return must wake it; a lost wake-up is a loom deadlock.
        let waiter = thread::spawn(move || p2.lease(1).size());
        drop(lease);
        assert_eq!(waiter.join().unwrap(), 1);
        assert_eq!(pool.free_cores(), 1);
        assert_eq!(pool.idle_executors(), 1);
    });
}
