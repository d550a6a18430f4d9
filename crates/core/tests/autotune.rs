//! The self-tuning loop, end to end: a deployment planned from wrong
//! registration-time estimates measures reality, detects the drift, and
//! re-optimizes itself — strictly reducing subsequent delivery cost
//! versus an identical deployment that never autotunes.

use cosmos::{AutotuneOptions, AutotunePolicy, Cosmos, CosmosConfig, MetricsConfig};
use cosmos_overlay::{Graph, OptimizerConfig};
use cosmos_query::{AttrStats, StreamStats};
use cosmos_types::{AttrType, NodeId, QueryId, Schema, TimeDelta, Timestamp, Tuple, Value};

/// A curved 3-node overlay: 0 at (0,0), 1 at (0.3,0.4), 2 at (0.6,0).
/// Physical edges 0-1 and 1-2 (0.5 each), so the MST chains 0→1→2 and
/// the root-to-2 path costs 1.0 — while the *logical* pair 0-2 costs
/// only its 0.6 distance. Promoting node 2 under the root is exactly
/// the move measured demand should buy. `merging: false` deploys the
/// non-share baseline.
fn curved_system(registered_rate: f64, merging: bool) -> (Cosmos, QueryId) {
    let mut g = Graph::new(3);
    g.set_position(NodeId(0), 0.0, 0.0);
    g.set_position(NodeId(1), 0.3, 0.4);
    g.set_position(NodeId(2), 0.6, 0.0);
    g.add_edge_by_distance(NodeId(0), NodeId(1)).unwrap();
    g.add_edge_by_distance(NodeId(1), NodeId(2)).unwrap();
    let mut sys = Cosmos::with_graph(
        CosmosConfig {
            nodes: 3,
            processor_fraction: 0.34,
            merging_enabled: merging,
            ..CosmosConfig::default()
        },
        g,
    )
    .unwrap();
    sys.register_stream(
        "S",
        Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]),
        StreamStats::with_rate(registered_rate).attr("k", AttrStats::categorical(10.0)),
        NodeId(0),
    )
    .unwrap();
    let q = sys
        .submit_query("SELECT k FROM S [Now]", NodeId(2))
        .unwrap();
    assert_eq!(sys.tree().parent(NodeId(2)), Some(NodeId(1)), "MST chain");
    (sys, q)
}

/// Publish tuple `i` at virtual time `i × 200 ms` — an actual rate of
/// 5 tuples/second.
fn publish_phase(sys: &mut Cosmos, range: std::ops::Range<i64>) {
    sys.run(range.map(|i| {
        Tuple::new(
            "S",
            Timestamp(i * 200),
            vec![Value::Int(i % 7), Value::Int(i * 200)],
        )
    }))
    .unwrap();
}

#[test]
fn autotune_detects_drift_and_strictly_reduces_cost() {
    // Registered at 0.1 tuples/s; reality runs at 5 tuples/s.
    let (mut tuned, q_tuned) = curved_system(0.1, true);
    let (mut control, q_control) = curved_system(0.1, true);

    publish_phase(&mut tuned, 0..150);
    publish_phase(&mut control, 0..150);
    assert_eq!(tuned.weighted_cost(), control.weighted_cost());
    assert_eq!(tuned.results(q_tuned).len(), 150);

    let pass = tuned.autotune(&AutotuneOptions::default()).unwrap();
    assert!(pass.triggered, "49x rate drift must trigger: {pass:?}");
    assert!(pass.stream_drift > 10.0, "{pass:?}");
    assert!(pass.adopted_streams >= 1, "{pass:?}");
    assert!(!pass.tree_rolled_back, "direct calls run without a band");
    let tree = pass.tree.expect("tree pass ran");
    assert!(tree.moves >= 1, "measured demand should move node 2");
    assert_eq!(
        tuned.tree().parent(NodeId(2)),
        Some(NodeId(0)),
        "node 2 promoted under the root over the cheaper logical pair"
    );
    // The adopted catalog now carries the measured rate.
    let rate = tuned.catalog().stats(&"S".into()).unwrap().rate;
    assert!((rate - 5.0).abs() < 0.5, "adopted rate {rate}");

    // Phase 2: same traffic into both deployments.
    let before_tuned = tuned.weighted_cost();
    let before_control = control.weighted_cost();
    publish_phase(&mut tuned, 150..300);
    publish_phase(&mut control, 150..300);
    let delta_tuned = tuned.weighted_cost() - before_tuned;
    let delta_control = control.weighted_cost() - before_control;
    assert_eq!(
        tuned.results(q_tuned).len(),
        control.results(q_control).len(),
        "autotune must not change delivery"
    );
    assert!(
        delta_tuned < delta_control,
        "autotuned phase-2 cost {delta_tuned} must beat control {delta_control}"
    );
    // The promotion replaced the 0.5+0.5 path with the 0.6 logical hop.
    let ratio = delta_tuned / delta_control;
    assert!((ratio - 0.6).abs() < 0.05, "cost ratio {ratio}");
}

#[test]
fn baseline_representatives_count_toward_group_drift() {
    // The non-share baseline runs one representative per query, and its
    // estimated cost drifts from the measured one exactly like that of
    // the merged deployment's one-member group.
    let (mut baseline, q) = curved_system(0.1, false);
    let (mut merged, _) = curved_system(0.1, true);
    publish_phase(&mut baseline, 0..150);
    publish_phase(&mut merged, 0..150);
    let (_, group_drift) = baseline.measured_drift();
    assert!(group_drift > 0.0, "{group_drift}");
    assert_eq!(group_drift, merged.measured_drift().1);

    let pass = baseline.autotune(&AutotuneOptions::default()).unwrap();
    assert!(pass.triggered, "{pass:?}");
    assert_eq!(pass.group_drift, group_drift);
    assert_eq!(pass.groups_improved, 0, "a baseline never regroups");
    assert_eq!(baseline.results(q).len(), 150);
}

#[test]
fn autotune_is_a_no_op_without_drift() {
    // Registered rate matches reality: nothing should move.
    let (mut sys, q) = curved_system(5.0, true);
    publish_phase(&mut sys, 0..150);
    let cost = sys.weighted_cost();
    let pass = sys.autotune(&AutotuneOptions::default()).unwrap();
    assert!(!pass.triggered, "{pass:?}");
    assert!(pass.tree.is_none());
    assert_eq!(sys.tree().parent(NodeId(2)), Some(NodeId(1)), "unchanged");
    assert_eq!(sys.weighted_cost(), cost);
    assert_eq!(sys.results(q).len(), 150);
}

#[test]
fn metrics_snapshot_agrees_with_driver_accounting() {
    let (mut sys, q) = curved_system(0.1, true);
    publish_phase(&mut sys, 0..50);
    let snap = sys.metrics();
    assert_eq!(snap.link_bytes_total(), sys.total_bytes());
    assert_eq!(snap.delivered_tuples(q), sys.results(q).len() as u64);
    // The source stream was observed with sampled attribute stats.
    let s = snap
        .streams
        .iter()
        .find(|m| m.stream == "S")
        .expect("observed");
    assert_eq!(s.tuples, 50);
    assert!(s.tuple_rate > 3.0, "rate {}", s.tuple_rate);
    assert!(s.attrs.iter().any(|a| a.name == "k"));
    // Snapshots are versioned JSON documents that round-trip.
    let json = snap.to_json().unwrap();
    let back = cosmos::MetricsSnapshot::from_json(&json).unwrap();
    assert_eq!(back, snap);
}

#[test]
fn scheduled_periodic_pass_promotes_without_manual_calls() {
    let (mut sys, q) = curved_system(0.1, true);
    sys.set_autotune(Some(AutotunePolicy {
        period_virtual: TimeDelta::from_secs(10),
        trigger_after_k_windows: 0,
        hysteresis: 0.0,
        options: AutotuneOptions::default(),
    }));
    // 150 tuples at 200 ms reach t = 30 s: the 10 s period fires along
    // the way, the 49x rate drift triggers, and node 2 is promoted —
    // no explicit autotune() call anywhere.
    publish_phase(&mut sys, 0..150);
    let status = sys.autotune_status().expect("policy armed");
    assert!(status.runs >= 1, "runs {}", status.runs);
    assert_eq!(sys.tree().parent(NodeId(2)), Some(NodeId(0)), "promoted");
    // The last scheduled pass ran *after* the first one adopted the
    // measured stats, so it saw no drift.
    assert!(!status.last.expect("a pass ran").triggered);
    assert_eq!(status.rollbacks, 0, "strict improvement adopted");
    assert_eq!(sys.results(q).len(), 150, "scheduling never drops data");
}

#[test]
fn drift_trigger_waits_for_k_consecutive_windows() {
    let (mut sys, _q) = curved_system(0.1, true);
    // 2 s rate windows so window boundaries actually pass; periodic
    // trigger off — only K consecutive over-drift windows may fire.
    sys.set_metrics_config(MetricsConfig {
        window: TimeDelta::from_secs(2),
        ..MetricsConfig::default()
    });
    sys.set_autotune(Some(AutotunePolicy {
        period_virtual: TimeDelta::ZERO,
        trigger_after_k_windows: 3,
        hysteresis: 0.0,
        options: AutotuneOptions::default(),
    }));
    publish_phase(&mut sys, 0..150);
    // Drift exceeded the threshold on (at least) the first three window
    // entries, so exactly one pass fired; after it adopted the measured
    // rate the drift collapsed and the counter never refilled.
    let runs = sys.autotune_status().expect("policy armed").runs;
    assert_eq!(runs, 1, "one drift-triggered pass");
    assert_eq!(sys.tree().parent(NodeId(2)), Some(NodeId(0)), "promoted");
}

#[test]
fn disarmed_scheduler_never_runs() {
    let (mut sys, _q) = curved_system(0.1, true);
    sys.set_autotune(Some(AutotunePolicy {
        period_virtual: TimeDelta::ZERO,
        trigger_after_k_windows: 0,
        hysteresis: 0.0,
        options: AutotuneOptions::default(),
    }));
    publish_phase(&mut sys, 0..60);
    let runs = sys.autotune_status().expect("policy armed").runs;
    assert_eq!(runs, 0, "both triggers disabled");
    sys.set_autotune(None);
    publish_phase(&mut sys, 60..120);
    assert_eq!(sys.autotune_status(), None);
    assert_eq!(sys.tree().parent(NodeId(2)), Some(NodeId(1)), "untouched");
}

/// A bistable 4-node deployment for the hysteresis argument.
///
/// Geometry: 0 at the origin (root, the only processor), 1 at
/// (0.3, 0.4), 2 at (0.6, 0), 3 at (−0.5, 0); physical edges 0-1, 1-2,
/// 0-3, each of delay 0.5, so the MST is `{0→1→2, 0→3}` (plan A). The
/// *logical* pair 0-2 costs 0.6, so promoting 2 under the root (plan B)
/// saves 0.4 of root-path delay per demanded byte at node 2 — but with
/// `max_degree: 2` it overflows the root's degree and pays the load
/// penalty `W`. A beats B iff `0.4·demand(2) < W`: demand oscillating
/// across `W / 0.4` makes the two plans leapfrog each other.
///
/// Nodes 1 and 3 consume steady high-rate streams (`U` and `T`) in
/// every phase, so the optimizer can never dodge the root-degree
/// penalty by re-parenting either of them (any such move costs
/// `demand × ≥0.4` of delay, an order of magnitude more than `W`) —
/// node 2's parent is the only economically mobile edge.
fn bistable_system(w_load: f64) -> (Cosmos, AutotuneOptions) {
    let mut g = Graph::new(4);
    g.set_position(NodeId(0), 0.0, 0.0);
    g.set_position(NodeId(1), 0.3, 0.4);
    g.set_position(NodeId(2), 0.6, 0.0);
    g.set_position(NodeId(3), -0.5, 0.0);
    g.add_edge_by_distance(NodeId(0), NodeId(1)).unwrap();
    g.add_edge_by_distance(NodeId(1), NodeId(2)).unwrap();
    g.add_edge_by_distance(NodeId(0), NodeId(3)).unwrap();
    let mut sys = Cosmos::with_graph(
        CosmosConfig {
            nodes: 4,
            processor_fraction: 0.25,
            ..CosmosConfig::default()
        },
        g,
    )
    .unwrap();
    // An 8 s window: phase changes show up in the measured rates (and
    // the measured demand) within one phase.
    sys.set_metrics_config(MetricsConfig {
        window: TimeDelta::from_secs(8),
        ..MetricsConfig::default()
    });
    let schema = Schema::of(&[("k", AttrType::Int), ("timestamp", AttrType::Int)]);
    sys.register_stream(
        "S",
        schema.clone(),
        StreamStats::with_rate(0.1).attr("k", AttrStats::categorical(10.0)),
        NodeId(0),
    )
    .unwrap();
    sys.register_stream(
        "T",
        schema.clone(),
        StreamStats::with_rate(0.1).attr("k", AttrStats::categorical(10.0)),
        NodeId(0),
    )
    .unwrap();
    sys.register_stream(
        "U",
        schema,
        StreamStats::with_rate(0.1).attr("k", AttrStats::categorical(10.0)),
        NodeId(0),
    )
    .unwrap();
    sys.submit_query("SELECT k FROM U [Now]", NodeId(1))
        .unwrap();
    sys.submit_query("SELECT k FROM S [Now] WHERE k >= 100", NodeId(2))
        .unwrap();
    sys.submit_query("SELECT k FROM T [Now]", NodeId(3))
        .unwrap();
    assert_eq!(sys.tree().parent(NodeId(2)), Some(NodeId(1)), "plan A");
    let options = AutotuneOptions {
        optimizer: OptimizerConfig {
            max_degree: 2,
            w_delay: 1.0,
            w_load,
            rounds: 4,
        },
        ..AutotuneOptions::default()
    };
    (sys, options)
}

/// Drive three phases of oscillating demand at node 2 and sample its
/// tree parent after every publish. Burst phases (0–20 s, 40–60 s) run
/// `S` at 10/s with `k = 200` (all of it lands on node 2); the quiet
/// phase (20–40 s) runs `S` at 1.25/s with only every fourth tuple
/// `k = 200`. `T` and `U` hold their steady rates toward nodes 3 and 1
/// throughout. Returns the deduplicated trajectory of node 2's parent.
fn drive_oscillation(sys: &mut Cosmos) -> Vec<u32> {
    let mut trajectory: Vec<u32> = vec![sys.tree().parent(NodeId(2)).unwrap().raw()];
    for tick in 0i64..600 {
        let ts = tick * 100;
        let quiet = (20_000..40_000).contains(&ts);
        let publish_s = if quiet { tick % 8 == 0 } else { true };
        if publish_s {
            let k = if quiet && (tick / 8) % 4 != 0 { 5 } else { 200 };
            sys.publish(&Tuple::new(
                "S",
                Timestamp(ts),
                vec![Value::Int(k), Value::Int(ts)],
            ))
            .unwrap();
        }
        for (steady, off) in [("T", 1i64), ("U", 2)] {
            sys.publish(&Tuple::new(
                steady,
                Timestamp(ts + off),
                vec![Value::Int(1), Value::Int(ts + off)],
            ))
            .unwrap();
        }
        let parent = sys.tree().parent(NodeId(2)).unwrap().raw();
        if trajectory.last() != Some(&parent) {
            trajectory.push(parent);
        }
    }
    trajectory
}

#[test]
fn hysteresis_damps_plan_oscillation() {
    // Calibrate W against the burst-phase demand actually measured at
    // node 2, on a probe deployment identical to the real one.
    let (mut probe, _) = bistable_system(1.0);
    for i in 0..200 {
        probe
            .publish(&Tuple::new(
                "S",
                Timestamp(i * 100),
                vec![Value::Int(200), Value::Int(i * 100)],
            ))
            .unwrap();
    }
    let burst_demand = probe.metrics_hub().consumed_byte_rate(NodeId(2));
    assert!(burst_demand > 0.0, "probe saw deliveries at node 2");
    // A→B saves 0.4·demand(2) of delay and pays W: with W at 25% of
    // the burst-phase saving, B wins every burst and loses every quiet
    // phase (quiet demand is ~1/32 of burst), i.e. the system is
    // genuinely bistable — but the A→B improvement ratio is well under
    // 50%, so a 0.5 hysteresis band refuses the flip.
    let w_load = 0.1 * burst_demand;

    // Undamped control: the same schedule with a zero band flips the
    // tree with the demand, A→B→A→B.
    let (mut undamped, options) = bistable_system(w_load);
    undamped.set_autotune(Some(AutotunePolicy {
        period_virtual: TimeDelta::from_secs(10),
        trigger_after_k_windows: 0,
        hysteresis: 0.0,
        options,
    }));
    let trajectory = drive_oscillation(&mut undamped);
    assert_eq!(
        trajectory,
        vec![1, 0, 1, 0],
        "zero band must oscillate with the phases"
    );
    let rollbacks = |sys: &Cosmos| sys.autotune_status().expect("policy armed").rollbacks;
    assert_eq!(rollbacks(&undamped), 0);

    // Damped: a 0.5 band rolls every flip attempt back — the adoption
    // trajectory is monotone (constant), with the attempts on record.
    let (mut damped, options) = bistable_system(w_load);
    damped.set_autotune(Some(AutotunePolicy {
        period_virtual: TimeDelta::from_secs(10),
        trigger_after_k_windows: 0,
        hysteresis: 0.5,
        options,
    }));
    let trajectory = drive_oscillation(&mut damped);
    assert_eq!(trajectory, vec![1], "no flip ever lands under the band");
    assert!(
        rollbacks(&damped) >= 2,
        "both bursts attempted the promotion and were rolled back (got {})",
        rollbacks(&damped)
    );
}
