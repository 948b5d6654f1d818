//! `compas-serve` rejects a flag that does not apply to the chosen
//! role instead of silently ignoring it: a coordinator "with a quota"
//! must not quietly run without one.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `compas-serve` with `args` and returns its exit code and
/// stderr, or `None` if it is still running after `deadline` (it is
/// then killed).
fn run(args: &[&str], deadline: Duration) -> Option<(i32, String)> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_compas-serve"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn compas-serve");
    let started = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("wait compas-serve") {
            let mut stderr = String::new();
            let _ = child
                .stderr
                .take()
                .expect("piped stderr")
                .read_to_string(&mut stderr);
            return Some((status.code().unwrap_or(-1), stderr));
        }
        if started.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn coordinator_rejects_an_execution_flag() {
    let outcome = run(
        &[
            "--coordinator",
            "--shards",
            "127.0.0.1:1",
            "--quota-shots",
            "10",
            "--addr",
            "127.0.0.1:0",
        ],
        Duration::from_secs(5),
    );
    let (code, stderr) = outcome.expect("coordinator kept serving with an ignored --quota-shots");
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--quota-shots"), "{stderr}");
}

#[test]
fn standalone_rejects_a_coordinator_flag() {
    let outcome = run(
        &["--shards", "127.0.0.1:1", "--addr", "127.0.0.1:0"],
        Duration::from_secs(5),
    );
    let (code, stderr) = outcome.expect("standalone server kept serving with an ignored --shards");
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--shards"), "{stderr}");
}
