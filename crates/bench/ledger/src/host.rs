//! The machine a run measured, and the guards that keep a run
//! reproducible on it.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use serde_json::Value;

/// Names of the `ST_*` environment variables that are set. The program
/// under test reads these (`RuntimeConfig::from_env`) and would
/// silently change what is measured, so the ledger refuses to run while
/// any is set.
pub fn tuning_variables() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ST_"))
        .collect();
    set.sort();
    set
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time this process has used, over all its threads.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads one of Linux's CPU-time clocks.
fn cpu_clock(clock: i32) -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on), and the CPU-time
    // clocks of the calling process and thread always exist.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(t.tv_sec as u64, t.tv_nsec as u32)
}

fn first_line(path: impl AsRef<Path>) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(text.lines().next()?.trim().to_owned())
}

/// The commit the ledger was built from, or `unknown` outside a git
/// checkout.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../.git");
    let Some(head) = first_line(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    first_line(git.join(reference))
        .or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The active transparent-hugepage mode (the bracketed choice).
fn thp_mode() -> String {
    first_line("/sys/kernel/mm/transparent_hugepage/enabled")
        .and_then(|l| {
            let start = l.find('[')?;
            let end = l[start..].find(']')?;
            Some(l[start + 1..start + end].to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Size of the last-level cache of CPU 0, as the kernel prints it.
fn llc_size() -> String {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .rev()
        .find_map(|i| first_line(dir.join(format!("index{i}/size"))))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host block every report carries.
pub fn block() -> BTreeMap<String, Value> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    BTreeMap::from([
        ("nproc".to_owned(), Value::Number(nproc as f64)),
        ("profile".to_owned(), Value::String(profile.to_owned())),
        ("git_rev".to_owned(), Value::String(git_rev())),
        ("thp".to_owned(), Value::String(thp_mode())),
        ("cpu".to_owned(), Value::String(cpu_model())),
        ("llc".to_owned(), Value::String(llc_size())),
    ])
}

/// The host block as one human-readable line.
pub fn describe(block: &BTreeMap<String, Value>) -> String {
    let fields: Vec<String> = block
        .iter()
        .map(|(k, v)| match v {
            Value::String(s) => format!("{k}={s:?}"),
            other => format!("{k}={}", serde_json::to_string(other).unwrap_or_default()),
        })
        .collect();
    format!("host {}", fields.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_count_work_and_not_sleep() {
        let (p0, t0) = (process_cpu(), thread_cpu());
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_cpu() - t0;
        let start = std::time::Instant::now();
        let mut x = 1u64;
        while start.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let worked = thread_cpu() - t0 - slept;
        assert!(slept < Duration::from_millis(10), "sleeping used {slept:?}");
        assert!(worked > Duration::from_millis(5), "working used {worked:?}");
        assert!(process_cpu() - p0 >= worked);
    }
}
