//! `ledger`: runs the benchmark workloads against the service as
//! shipped and prints every metric as `<workload> <metric> <value>
//! <unit>`.
//!
//! ```text
//! ledger [--seed N] [--seconds S] [--trace [0|1]] [--runs K] [--compare OLD.json] [--smoke]
//! ledger --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! ```
//!
//! With `--workload`, one run of that workload happens in this process
//! and the output ends with one JSON result line. Without it, every
//! workload runs `--runs` times, each run in its own child process (so
//! `peak_rss_mb` is that workload's alone), with seeds `N, N+1, ...`;
//! the medians are printed and the whole record is written to
//! `out/ledger.json` (`out/ledger-trace.json` for traced runs) beside
//! this crate. `--compare OLD.json` then judges those medians against
//! an earlier report and exits non-zero on a regression.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;
use st_ledger::host;
use st_ledger::registry::{self, Layer};
use st_ledger::report::{self, WorkloadRuns};
use st_ledger::trace::Tracer;
use st_ledger::workloads::{self, RunCfg};

const USAGE: &str = "usage: ledger [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--runs K] [--compare OLD.json] [--smoke]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    compare: Option<PathBuf>,
    smoke: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: registry::run_seconds(),
        trace: false,
        runs: 1,
        compare: None,
        smoke: false,
    };
    let mut pending = it.next();
    while let Some(flag) = pending.take() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed must be a whole number")?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?
            }
            "--runs" => {
                args.runs = value("a count")?
                    .parse()
                    .ok()
                    .filter(|&k| k > 0)
                    .ok_or("--runs must be at least 1")?
            }
            "--compare" => args.compare = Some(PathBuf::from(value("a report path")?)),
            "--smoke" => args.smoke = true,
            "--trace" => {
                // `--trace` alone, or with an explicit `0` or `1`.
                args.trace = true;
                match it.next() {
                    Some(v) if v == "0" || v == "1" => args.trace = v == "1",
                    other => {
                        pending = other;
                        continue;
                    }
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        pending = it.next();
    }
    if args.trace && args.compare.is_some() {
        return Err("--compare judges untraced runs; drop --trace".to_owned());
    }
    if args.workload.is_some() && (args.runs > 1 || args.compare.is_some()) {
        return Err(
            "--runs and --compare apply to the whole ledger, not one --workload".to_owned(),
        );
    }
    Ok(args)
}

/// Reports and trace files go here, beside the crate.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = host::tuning_variables();
    if !set.is_empty() {
        eprintln!(
            "ledger: refusing to run while {} is set: the ST_* variables retune the program \
             under test, so its numbers would not be those of the shipped defaults",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

/// One run of one workload, in this process.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    if !registry::workloads().iter().any(|w| w == workload) {
        eprintln!(
            "ledger: unknown workload {workload}; declared: {}",
            registry::workloads().join(", ")
        );
        return ExitCode::from(2);
    }
    eprintln!("{}", host::describe(&host::block()));
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let tracer = args.trace.then(Tracer::new);
    let outcome = match workloads::run(workload, &cfg, tracer.as_ref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ledger: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = &tracer {
        let path = out_dir().join(format!("trace-{workload}.jsonl"));
        if let Err(e) = t.write_jsonl(&path) {
            eprintln!("ledger: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "ledger: {} spans written to {}",
            t.span_count(),
            path.display()
        );
    }
    let layer = if args.trace {
        Layer::PerLayer
    } else {
        Layer::EndToEnd
    };
    let (lines, json) = match registry::render(workload, &outcome, layer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in lines {
        println!("{line}");
    }
    println!("{json}");
    match &outcome.wrong {
        Some(wrong) => {
            eprintln!("ledger: {workload}: wrong output: {wrong}");
            ExitCode::FAILURE
        }
        None => ExitCode::SUCCESS,
    }
}

/// Every workload, `--runs` times each, one child process per run.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("ledger: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut runs: BTreeMap<String, WorkloadRuns> = BTreeMap::new();
    for workload in registry::workloads() {
        for r in 0..args.runs {
            let seed = args.seed.wrapping_add(r as u64);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", &workload, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = match cmd.stderr(Stdio::inherit()).output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("ledger: starting the {workload} run: {e}");
                    ok = false;
                    continue;
                }
            };
            if !output.status.success() {
                eprintln!(
                    "ledger: the {workload} run (seed {seed}) failed: {}",
                    output.status
                );
                ok = false;
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let parsed = stdout
                .lines()
                .last()
                .ok_or_else(|| "no output".to_owned())
                .and_then(|l| serde_json::parse_value(l).map_err(|e| e.to_string()))
                .and_then(|v| runs.entry(workload.clone()).or_default().absorb(&v));
            if let Err(e) = parsed {
                eprintln!("ledger: the {workload} run (seed {seed}) left no result: {e}");
                ok = false;
            }
        }
    }

    let layer = if args.trace {
        Layer::PerLayer
    } else {
        Layer::EndToEnd
    };
    let declared: Vec<_> = registry::declared()
        .into_iter()
        .filter(|m| m.layer == layer)
        .collect();
    for (workload, r) in &runs {
        for m in &declared {
            if let Some(median) = r.median(&m.name) {
                println!("{workload} {} {median} {}", m.name, m.unit);
            }
        }
    }
    let host = host::block();
    println!("{}", host::describe(&host));
    let settings = BTreeMap::from([
        ("seed".to_owned(), Value::Number(args.seed as f64)),
        ("seconds".to_owned(), Value::Number(args.seconds)),
        ("runs".to_owned(), Value::Number(args.runs as f64)),
        ("trace".to_owned(), Value::Bool(args.trace)),
        ("smoke".to_owned(), Value::Bool(args.smoke)),
    ]);
    let json = report::to_json(host, settings, &runs);
    let path = out_dir().join(if args.trace {
        "ledger-trace.json"
    } else {
        "ledger.json"
    });
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| {
        let text = serde_json::to_string_pretty(&json).map_err(std::io::Error::other)?;
        std::fs::write(&path, text + "\n")
    });
    match written {
        Ok(()) => eprintln!("ledger: report written to {}", path.display()),
        Err(e) => {
            eprintln!("ledger: writing {}: {e}", path.display());
            ok = false;
        }
    }

    if let Some(old) = &args.compare {
        let parent = std::fs::read_to_string(old)
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::parse_value(&t).map_err(|e| e.to_string()))
            .and_then(|v| report::from_json(&v));
        match parent {
            Ok(parent) => {
                let (lines, regressed) = report::compare(&parent, &runs);
                for line in lines {
                    println!("{line}");
                }
                if regressed {
                    eprintln!("ledger: a metric regressed past its bound");
                    ok = false;
                }
            }
            Err(e) => {
                eprintln!("ledger: reading {}: {e}", old.display());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn trace_takes_an_optional_value() {
        let a = args(&["--trace", "0", "--smoke"]).unwrap();
        assert!(!a.trace && a.smoke);
        let a = args(&["--trace", "--smoke"]).unwrap();
        assert!(a.trace && a.smoke);
        let a = args(&["--smoke", "--trace", "1"]).unwrap();
        assert!(a.trace && a.smoke);
        let a = args(&["--trace"]).unwrap();
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--runs", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
        assert!(args(&["--trace", "--compare", "old.json"]).is_err());
        assert!(args(&["--workload", "small-mixed", "--runs", "2"]).is_err());
    }
}
