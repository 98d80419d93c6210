//! The open-loop load generator.
//!
//! Independent users do not wait for each other, so an open loop sends
//! each request at its scheduled time whatever happened to the last one.
//! Latency is timed from when a request was *due*, not from when it was
//! sent: a stall (in the server, or in the generator itself) then shows
//! up in every request that should have gone out during it, instead of
//! silently thinning the load.

use std::time::{Duration, Instant};

use crate::rng::Rng;

/// One request of an open loop.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// From due time to completion.
    pub latency: Duration,
    /// From due time to the moment the generator got to send it.
    pub lateness: Duration,
    /// False when the request failed or its answer was wrong.
    pub ok: bool,
}

/// Due offsets of a Poisson arrival stream at `rate` requests per
/// second over `span`.
pub fn poisson_schedule(rate: f64, span: Duration, rng: &mut Rng) -> Vec<Duration> {
    let mut due = Vec::with_capacity((rate * span.as_secs_f64() * 1.1) as usize + 1);
    let mut t = rng.exp(1.0 / rate);
    while t < span.as_secs_f64() {
        due.push(Duration::from_secs_f64(t));
        t += rng.exp(1.0 / rate);
    }
    due
}

/// Runs request `i` at `start + due[i]` for every `i`, calling `op(i)`
/// (true on success). Returns one sample per request.
pub fn open_loop(
    start: Instant,
    due: &[Duration],
    mut op: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    tighten_timer_slack();
    let mut samples = Vec::with_capacity(due.len());
    for (i, &offset) in due.iter().enumerate() {
        let due_at = start + offset;
        let now = Instant::now();
        if now < due_at {
            std::thread::sleep(due_at - now);
        }
        let sent = Instant::now();
        let ok = op(i);
        samples.push(Sample {
            latency: due_at.elapsed(),
            lateness: sent.saturating_duration_since(due_at),
            ok,
        });
    }
    samples
}

/// Asks the kernel to wake this thread's sleeps on time. The default
/// 50 µs timer slack would otherwise add ~60 µs of generator lateness to
/// every request, a large share of a small job's latency.
fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        const PR_SET_TIMERSLACK: i32 = 29;
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        // SAFETY: PR_SET_TIMERSLACK takes one integer (the slack in ns)
        // and touches only the calling thread's timer slack; no memory
        // is passed. A failure leaves the default slack, which is safe.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_and_sorted() {
        let a = poisson_schedule(2000.0, Duration::from_secs(1), &mut Rng::new(3));
        let b = poisson_schedule(2000.0, Duration::from_secs(1), &mut Rng::new(3));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn a_generator_stall_shows_up_in_later_requests() {
        // 100 requests 1 ms apart; the generator stalls 50 ms while
        // sending request 20. Requests 21..69 were due during the stall,
        // so timing from due time must charge them the wait.
        let due: Vec<Duration> = (0..100).map(Duration::from_millis).collect();
        let stall = Duration::from_millis(50);
        let samples = open_loop(Instant::now(), &due, |i| {
            if i == 20 {
                std::thread::sleep(stall);
            }
            true
        });
        assert!(samples[20].latency >= stall);
        for (i, s) in samples.iter().enumerate().take(60).skip(21) {
            let owed = stall - Duration::from_millis(i as u64 - 20);
            assert!(s.latency >= owed, "request {i}: {:?} < {owed:?}", s.latency);
            assert!(s.lateness >= owed, "request {i} was not reported late");
        }
        let worst = samples.iter().map(|s| s.lateness).max().unwrap();
        assert!(worst >= stall - Duration::from_millis(1));
    }
}
