//! `ledger --smoke`: every workload on tiny inputs, untraced and traced.
//!
//! The ledger must print every metric `BENCHMARK.json` declares for the
//! mode, with its declared unit, for every workload, and every run must
//! come back correct (the ledger exits non-zero otherwise).

use std::collections::BTreeSet;
use std::process::Command;

use st_ledger::registry::{self, Layer};

/// The ledger binary with every `ST_*` variable of this environment
/// removed, so a developer's tuning cannot trip the ledger's guard.
fn ledger() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ledger"));
    for var in st_ledger::host::tuning_variables() {
        cmd.env_remove(var);
    }
    cmd
}

fn check_mode(trace: bool, layer: Layer) {
    let out = ledger()
        .args([
            "--smoke",
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("the ledger starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "ledger --smoke failed\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let printed: BTreeSet<(String, String, String)> = stdout
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 4 && f[2].parse::<f64>().is_ok())
                .then(|| (f[0].to_owned(), f[1].to_owned(), f[3].to_owned()))
        })
        .collect();
    for workload in registry::workloads() {
        for m in registry::declared().iter().filter(|m| m.layer == layer) {
            let line = (workload.clone(), m.name.clone(), m.unit.clone());
            assert!(
                printed.contains(&line),
                "{workload} did not print {} in {}\nstdout:\n{stdout}",
                m.name,
                m.unit
            );
        }
    }
}

#[test]
fn smoke_run_prints_every_end_to_end_metric() {
    check_mode(false, Layer::EndToEnd);
}

#[test]
fn traced_smoke_run_prints_every_per_layer_metric_and_writes_spans() {
    check_mode(true, Layer::PerLayer);
    for workload in registry::workloads() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}.jsonl"));
        let text = std::fs::read_to_string(&path).expect("the traced run wrote its spans");
        assert!(text.lines().any(|l| l.contains("\"name\":\"net.submit\"")));
        assert!(text.lines().any(|l| l.contains("\"kind\":\"counts\"")));
    }
}

#[test]
fn refuses_to_run_while_a_tuning_variable_is_set() {
    let out = ledger()
        .args(["--workload", "small-mixed", "--smoke"])
        .env("ST_DIRECTION", "top-down")
        .output()
        .expect("the ledger starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("ST_DIRECTION"));
    assert!(out.stdout.is_empty(), "no result may be printed");
}
