//! The discrete-event simulator is a *medium*, not a fork of the
//! engine: the same parties, seeds and rosters must produce the same
//! bytes whether the session runs over the TCP relay on loopback, the
//! lockstep `BroadcastNet`, or `shs-sim`'s virtual-time media —
//! and a simulated campaign must reproduce bit-for-bit from its seed.

mod common;

use std::time::Duration;

use common::{actors, group, over_relay, rng};
use shs_core::handshake::party::run_party;
use shs_core::handshake::run_handshake_with_net;
use shs_core::{AbortReason, Actor, HandshakeOptions, SchemeKind};
use shs_net::fault::{FaultPlan, FaultRule};
use shs_net::observe::{TrafficLog, TrafficRecord};
use shs_net::sync::BroadcastNet;
use shs_net::tcp::TcpParty;
use shs_sim::adversary::{Kind, Schedule};
use shs_sim::core::LatencyModel;
use shs_sim::network::{run_session, SimMedium};
use shs_sim::{run_scenario, ScenarioConfig, SimPool};

const COLLECT: Duration = Duration::from_secs(5);

/// The relay logs each exchange in slot order, the simulator each
/// broadcast in virtual-time order; order both by identity before
/// comparing bytes.
fn canonical(log: &TrafficLog) -> Vec<TrafficRecord> {
    let mut records = log.records().to_vec();
    records.sort_by(|a, b| {
        (&a.round, a.from_slot, &a.payload).cmp(&(&b.round, b.from_slot, &b.payload))
    });
    records
}

/// A fault-free session driven by the unmodified per-party driver over
/// the simulated medium produces the byte-identical transcript — same
/// rounds, same slots, same payload bytes — as a run over the real TCP
/// relay with the same seeds and roster, plus the same acceptances and
/// keys.
#[test]
fn simulated_session_matches_relay_transcript_byte_for_byte() {
    let label = "sim-hub-equiv";
    // Relay run. (Each run rebuilds the identical group from the same
    // seed so it owns its members — determinism end to end.)
    let mut r = rng(label);
    let (_, members) = group(SchemeKind::Scheme1, 3, &mut r);
    let opts = HandshakeOptions::default();
    let tcp_bodies: Vec<_> = members
        .into_iter()
        .enumerate()
        .map(|(i, member)| {
            move |link: &mut TcpParty| {
                let mut r = rng(&format!("{label}-{i}"));
                run_party(&Actor::Member(&member), &opts, link, COLLECT, &mut r)
                    .expect("relay party completes")
            }
        })
        .collect();
    let (tcp_results, tcp_traffic) = over_relay(tcp_bodies);

    // Simulated run: same members, same per-party seeds, virtual time.
    let mut r = rng(label);
    let (_, members) = group(SchemeKind::Scheme1, 3, &mut r);
    let roster = actors(&members);
    let mut rngs: Vec<_> = (0..3).map(|i| rng(&format!("{label}-{i}"))).collect();
    let plan = FaultPlan::new(7);
    let latency = LatencyModel::lan(7);
    let report = run_session(&roster, &opts, plan, latency, COLLECT, &mut rngs)
        .expect("sim session completes");

    for (slot, (h, s)) in tcp_results.iter().zip(&report.outputs).enumerate() {
        assert!(h.outcome.accepted && s.outcome.accepted, "slot {slot}");
        assert_eq!(h.outcome.session_key, s.outcome.session_key, "slot {slot}");
        assert_eq!(
            h.outcome.same_group_slots, s.outcome.same_group_slots,
            "slot {slot}"
        );
        assert_eq!(
            h.outcome.verified_slots, s.outcome.verified_slots,
            "slot {slot}"
        );
    }
    assert_eq!(
        canonical(&tcp_traffic),
        canonical(&report.traffic),
        "the eavesdropper cannot tell the simulated wire from the real one"
    );
    assert!(report.elapsed > Duration::ZERO, "virtual time was charged");
}

/// The lockstep anchor: the full engine over `SimMedium` produces the
/// byte-identical session result as over `BroadcastNet`, fault plans
/// included — the simulated medium changes *when*, never *what*.
#[test]
fn sim_medium_is_transparent_to_the_lockstep_engine() {
    let mut r = rng("sim-medium-equiv");
    let (_, members) = group(SchemeKind::Scheme1, 3, &mut r);
    let opts = HandshakeOptions::default();

    let mut rng_a = rng("sim-medium-equiv-run");
    let mut real = BroadcastNet::new(3, opts.delivery);
    real.set_fault_plan(FaultPlan::new(21));
    let a = run_handshake_with_net(&actors(&members), &opts, &mut real, &mut rng_a)
        .expect("real-medium session");

    let mut rng_b = rng("sim-medium-equiv-run");
    let mut sim = SimMedium::new(3, LatencyModel::lan(21));
    sim.set_fault_plan(FaultPlan::new(21));
    let b = run_handshake_with_net(&actors(&members), &opts, &mut sim, &mut rng_b)
        .expect("sim-medium session");

    assert_eq!(a.traffic, b.traffic, "byte-identical transcript");
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.accepted, y.accepted);
        assert_eq!(x.session_key, y.session_key);
        assert_eq!(x.same_group_slots, y.same_group_slots);
    }
    assert!(sim.elapsed() > Duration::ZERO);
}

/// A slot the simulated wire crash-silences ends `Crashed`, exactly as
/// the lockstep driver reports it: under `crash_stop(2, 3)` slot 2's
/// Phase-III frame never reaches the wire, the survivors reject, and the
/// silenced slot — which still heard everyone — does not get to accept.
#[test]
fn simulated_crash_stop_matches_lockstep_outcomes() {
    let label = "sim-crash-equiv";
    let mut r = rng(label);
    let (_, members) = group(SchemeKind::Scheme1, 3, &mut r);
    let roster = actors(&members);
    let opts = HandshakeOptions::default();
    let plan = || FaultPlan::new(23).with(FaultRule::crash_stop(2, 3));

    let mut net = BroadcastNet::new(3, opts.delivery);
    net.set_fault_plan(plan());
    let lockstep = run_handshake_with_net(&roster, &opts, &mut net, &mut rng("sim-crash-lockstep"))
        .expect("lockstep session");

    let mut rngs: Vec<_> = (0..3).map(|i| rng(&format!("{label}-{i}"))).collect();
    let report = run_session(
        &roster,
        &opts,
        plan(),
        LatencyModel::lan(23),
        COLLECT,
        &mut rngs,
    )
    .expect("sim session completes");

    assert_eq!(lockstep.outcomes[2].abort, Some(AbortReason::Crashed));
    let simulated: Vec<_> = report.outputs.into_iter().map(|p| p.outcome).collect();
    assert_eq!(simulated, lockstep.outcomes, "per-slot outcomes agree");
}

/// Same seed, same campaign: a full scenario (arrivals, queueing,
/// faults, re-formation, histograms) replays to the identical report.
#[test]
fn scenario_replays_bit_identically_from_its_seed() {
    let run = || {
        let pool = SimPool::build(3, 0, 0xD57);
        let cfg = ScenarioConfig::burst(5, 0xD57);
        run_scenario(&pool, Schedule::new(Kind::PhaseCrash, 0xD57), &cfg)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.fingerprint, b.fingerprint, "event-trace fingerprint");
    assert_eq!(a.classes, b.classes);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.faults, b.faults);
}
