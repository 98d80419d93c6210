//! The `ST_*` environment surface, tested through a child process.
//!
//! Each test re-runs this test binary with one child test selected and
//! the variables under test set on the child only: the environment is
//! read once per process, and `std::env::set_var` is unsound while
//! other test threads run.

use std::process::{Command, Output};

use bader_cong_spanning::prelude::*;

/// Set on the child process only; the child test is a no-op without it.
const CHILD_MARKER: &str = "ENV_KNOBS_CHILD";

/// Runs `child_builds_a_service_and_runs_the_engine` in a fresh process
/// with no inherited `ST_*` variable and `vars` set.
fn run_child(vars: &[(&str, &str)]) -> Output {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--exact",
        "child_builds_a_service_and_runs_the_engine",
        "--nocapture",
        "--test-threads=1",
    ]);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ST_") {
            cmd.env_remove(key);
        }
    }
    cmd.env(CHILD_MARKER, "1").envs(vars.iter().copied());
    cmd.output().expect("spawn the child test process")
}

fn combined_output(out: &Output) -> String {
    format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// The child body: a default service and a default engine run, each of
/// which reads the environment.
#[test]
fn child_builds_a_service_and_runs_the_engine() {
    if std::env::var_os(CHILD_MARKER).is_none() {
        return;
    }
    let service = Service::builder().build();
    service.shutdown();
    let g = gen::random_gnm(2_000, 3_000, 7);
    let forest = Engine::new(2).run(&BaderCong::with_defaults(), &g);
    assert!(is_spanning_forest(&g, &forest.parents));
}

#[test]
fn retired_variables_no_longer_steer_a_run() {
    let out = run_child(&[("ST_TENANT_QUOTA", "abc"), ("ST_HYBRID_ALPHA", "abc")]);
    assert!(
        out.status.success(),
        "a retired variable still fails the run:\n{}",
        combined_output(&out)
    );
}

#[test]
fn a_kept_variable_still_fails_loudly() {
    let out = run_child(&[("ST_SERVICE_CORES", "0")]);
    let text = combined_output(&out);
    assert!(
        !out.status.success(),
        "ST_SERVICE_CORES=0 was accepted:\n{text}"
    );
    assert!(
        text.contains("invalid ST_SERVICE_CORES"),
        "the panic does not name the variable:\n{text}"
    );
}
