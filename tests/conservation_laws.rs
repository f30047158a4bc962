//! Conservation-law and measurement-consistency checks on the simulator:
//! Little's law, Theorem 6 rate verification, and the r/r_s accounting used
//! by Tables II and III.

use meshbound::queueing::remaining::{light_load_r, light_load_rs};
use meshbound::topology::Mesh2D;
use meshbound::{Load, Scenario};

fn base(n: usize, rho: f64, seed: u64) -> Scenario {
    Scenario::mesh(n)
        .load(Load::TableRho(rho))
        .horizon(20_000.0)
        .warmup(2_000.0)
        .seed(seed)
        .track_saturated(true)
}

#[test]
fn littles_law_delay_consistency() {
    let res = base(6, 0.6, 21).run();
    let rel = (res.avg_delay - res.little_delay).abs() / res.avg_delay;
    assert!(
        rel < 0.03,
        "delay {} vs Little {}",
        res.avg_delay,
        res.little_delay
    );
}

#[test]
fn empirical_edge_rates_match_theorem6() {
    let n = 5;
    let rho = 0.5;
    let cfg = base(n, rho, 23);
    let res = cfg.run();
    let mesh = Mesh2D::square(n);
    let expect = meshbound::routing::rates::mesh_thm6_rates(&mesh, cfg.lambda());
    use meshbound::topology::Topology;
    for e in mesh.edges() {
        let got = res.edge_throughput[e.index()];
        let want = expect[e.index()];
        assert!(
            (got - want).abs() < 0.07 * want.max(0.03),
            "edge {e}: {got} vs {want}"
        );
    }
}

#[test]
fn r_ratio_tracks_light_load_closed_form() {
    // At ρ = 0.2 Table II is within ~1% of the light-load closed form.
    for &n in &[5usize, 8] {
        let res = base(n, 0.2, 29).run();
        let expect = light_load_r(n);
        assert!(
            (res.r_ratio - expect).abs() / expect < 0.03,
            "n={n}: r {} vs closed form {expect}",
            res.r_ratio
        );
    }
}

#[test]
fn rs_ratio_tracks_light_load_closed_form() {
    for &n in &[5usize, 6] {
        let res = base(n, 0.2, 31).run();
        let expect = light_load_rs(&Mesh2D::square(n));
        assert!(
            (res.rs_ratio - expect).abs() / expect.max(0.1) < 0.08,
            "n={n}: r_s {} vs closed form {expect}",
            res.rs_ratio
        );
    }
}

#[test]
fn r_exceeds_rs_and_both_positive() {
    let res = base(7, 0.7, 37).run();
    assert!(res.r_ratio > res.rs_ratio);
    assert!(res.rs_ratio > 0.0);
    // r is at least 1: every in-flight packet needs ≥ 1 more service.
    assert!(res.r_ratio >= 1.0);
}

#[test]
fn throughput_matches_arrival_rate() {
    // Long-run completions per unit time ≈ λn² (all generated packets are
    // delivered in a stable system).
    let cfg = base(5, 0.5, 41);
    let res = cfg.run();
    let expect = cfg.lambda() * 25.0;
    let got = res.completed as f64 / res.measure_time;
    assert!(
        (got - expect).abs() / expect < 0.05,
        "throughput {got} vs λn² = {expect}"
    );
}

#[test]
fn peak_utilization_matches_load() {
    let res = base(6, 0.8, 43).run();
    assert!(
        (res.max_edge_utilization - 0.8).abs() < 0.06,
        "peak utilization {} vs ρ = 0.8",
        res.max_edge_utilization
    );
}

#[test]
fn middle_queues_are_larger() {
    // §4.4: "intuition suggests that the queues on the middle of the array
    // should have higher expected queue sizes, since the number of packets
    // passing through them is larger" — measured directly.
    let n = 8;
    let res = Scenario::mesh(n)
        .load(Load::TableRho(0.8))
        .horizon(20_000.0)
        .warmup(2_000.0)
        .seed(53)
        .track_edge_queues(true)
        .run();
    let q = res.edge_mean_queue.expect("tracking enabled");
    let mesh = Mesh2D::square(n);
    // Central right edge (crossing index n/2) vs peripheral right edge
    // (crossing index 1) in the same row.
    let central = mesh.right_edge(3, n / 2 - 1);
    let border = mesh.right_edge(3, 0);
    assert!(
        q[central.index()] > 3.0 * q[border.index()],
        "central {} vs border {}",
        q[central.index()],
        q[border.index()]
    );
    // And the central queue's mean exceeds even the M/D/1 prediction's
    // scale while staying near the M/M/1 one (sanity window).
    assert!(q[central.index()] > 1.0 && q[central.index()] < 10.0);
}

#[test]
fn edge_queue_sum_consistent_with_total_r() {
    // Every in-system packet sits in exactly one edge queue (waiting or in
    // service), so the per-edge mean queue lengths must sum to E[N].
    let res = Scenario::mesh(5)
        .load(Load::Lambda(0.3))
        .horizon(15_000.0)
        .warmup(1_500.0)
        .seed(59)
        .track_edge_queues(true)
        .run();
    let q = res.edge_mean_queue.expect("tracking enabled");
    let total: f64 = q.iter().sum();
    let rel = (total - res.time_avg_n).abs() / res.time_avg_n;
    assert!(
        rel < 0.02,
        "Σ edge queues {total} vs E[N] {}",
        res.time_avg_n
    );
}

#[test]
fn littles_law_holds_on_short_horizons() {
    // Regression: the cross-check once divided E[N] by the *delivery*
    // rate `completed / (H − W)`. That misses the ~λT packets still in
    // flight at the horizon, so it overstated T by about T / (H − W) —
    // here by more than 10%. The arrival rate has no such bias.
    //
    // `avg_delay` itself is biased on a short window, the other way: it
    // averages delivered packets only, and the slow ones are the likeliest
    // to be cut off, which lowers the mean by about σ² / (H − W) (σ² the
    // delay variance). The comparison adds that term back, so what is
    // left is noise.
    let window = 150.0;
    for seed in [1, 2, 3] {
        let res = Scenario::mesh(20)
            .load(Load::TableRho(0.5))
            .warmup(300.0)
            .horizon(300.0 + window)
            .seed(seed)
            .run();
        let by_delivery = res.time_avg_n / (res.completed as f64 / res.measure_time);
        assert!(
            by_delivery / res.avg_delay - 1.0 > 0.10,
            "seed {seed}: the window is too long to tell the estimators apart"
        );
        let variance = res.delay_std_err.powi(2) * res.completed as f64;
        let uncensored = res.avg_delay + variance / window;
        let rel = (res.little_delay - uncensored).abs() / uncensored;
        assert!(
            rel < 0.015,
            "seed {seed}: Little {} vs delay {} (uncensored {uncensored}, rel {rel:.4})",
            res.little_delay,
            res.avg_delay
        );
    }
}
