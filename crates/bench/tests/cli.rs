//! End-to-end tests of the `repro` binary: the fault-injection surface
//! and the structured-error contract (nonzero exit + single-line
//! `repro: …` on stderr, never a panic backtrace).

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn faulted_scenario_completes_and_reports_degradation() {
    let out = repro(&[
        "scenario",
        "mesh:8,util=0.4,faults=links:0.1,horizon=600,warmup=60,seed=3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The analytic degradation section (reachability, post-fault λ*) and
    // the measured drop accounting both reach the terminal.
    assert!(stdout.contains("degradation:"), "{stdout}");
    assert!(stdout.contains("degraded: delivered"), "{stdout}");
    assert!(stdout.contains("link-down"), "{stdout}");
}

#[test]
fn healthy_scenario_prints_no_degradation_lines() {
    let out = repro(&["scenario", "mesh:6,util=0.3,horizon=400,warmup=40"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("degradation:"), "{stdout}");
    assert!(!stdout.contains("degraded:"), "{stdout}");
}

#[test]
fn bad_fault_spec_exits_nonzero_with_structured_error() {
    let out = repro(&["scenario", "mesh:8,util=0.4,faults=warp:1"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("repro:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("RUST_BACKTRACE"), "{stderr}");
}

#[test]
fn unsupported_engine_config_is_a_structured_error_not_a_panic() {
    // Exponential service has no lower bound, so the sharded engine's
    // conservative lookahead does not exist: the run must be refused
    // with a typed error, not abort the process.
    let out = repro(&["scenario", "mesh:6,util=0.3,service=exp,shards=2"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("repro:"), "{stderr}");
    assert!(stderr.contains("deterministic service"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Drops the one wall-clock line (`… events at Nk events/s`) so the rest
/// of the output can be compared byte-for-byte.
fn deterministic_lines(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.contains("events/s"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn faulted_reruns_are_bit_identical_on_both_engines() {
    // The acceptance scenario: same seed + same fault spec → identical
    // simulated output, on the calendar engine and on the two-shard
    // engine alike (only the events/s wall-clock figure may move).
    for engine in ["calendar", "sharded:2"] {
        let spec = format!(
            "mesh:16 traffic=transpose load=rho:0.5 faults=links:0.05 \
             horizon=400 warmup=40 seed=11 engine={engine}"
        );
        let a = repro(&["scenario", &spec]);
        let b = repro(&["scenario", &spec]);
        assert!(
            a.status.success(),
            "engine={engine} stderr: {}",
            String::from_utf8_lossy(&a.stderr)
        );
        assert_eq!(
            deterministic_lines(&a),
            deterministic_lines(&b),
            "engine={engine} rerun differs"
        );
        let stdout = String::from_utf8_lossy(&a.stdout);
        assert!(stdout.contains("degraded: delivered"), "{stdout}");
    }
}

/// Runs `repro` with a wall-clock limit, killing it on expiry so a spec
/// that never finishes fails the test instead of hanging it.
fn repro_within(args: &[&str], limit: std::time::Duration) -> Output {
    use std::io::Read;
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn repro");
    let start = std::time::Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on repro") {
            break status;
        }
        if start.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("repro {args:?} still running after {limit:?}");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = Vec::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_end(&mut stderr)
        .expect("read stderr");
    Output {
        status,
        stdout: Vec::new(),
        stderr,
    }
}

#[test]
fn tick_intervals_that_never_finish_are_refused() {
    // Each interval fires horizon / dt times; far past the tick cap the
    // clock cannot even advance (`now + dt == now`) or the probe stride
    // overflows. Such specs must be refused up front — exit 2, one
    // `repro: …` line naming the key — not hang or panic.
    for (spec, key) in [
        ("mesh:3 probes=nsys@1e-20", "probes"),
        ("mesh:3 sample=1e-13", "sample"),
        ("mesh:3 slot=1e-13", "slot"),
    ] {
        let out = repro_within(&["scenario", spec], std::time::Duration::from_secs(60));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.starts_with("repro:"), "{spec}: {stderr}");
        assert!(
            first.contains(key) && first.contains("ticks"),
            "{spec}: {first}"
        );
        assert!(!stderr.contains("panicked"), "{spec}: {stderr}");
    }
}
