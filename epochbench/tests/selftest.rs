//! The benchmark's own fast self-test: every workload at tiny sizes,
//! traced and untraced, through the same code path as a real run.

use std::process::Command;

#[test]
fn every_workload_passes_the_gate_and_reports_every_named_metric() {
    let out = Command::new(env!("CARGO_BIN_EXE_epochbench"))
        .arg("--self-test")
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "self-test failed:\n{stdout}\n{stderr}"
    );
    assert_eq!(stdout.matches(": ok").count(), 6, "{stdout}");
}

#[test]
fn bad_arguments_exit_2() {
    let status = Command::new(env!("CARGO_BIN_EXE_epochbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .status()
        .expect("the benchmark binary runs");
    assert_eq!(status.code(), Some(2));
}
