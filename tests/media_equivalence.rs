//! One fault plan, three lockstep media, one outcome.
//!
//! `BroadcastNet`, the simulator's `SimMedium` and the TCP relay behind
//! `TcpSession` all run their exchanges through `shs_net::wire::Wire`.
//! This test pins that: the same multi-rule `FaultPlan` over the same
//! rounds must give every receiver the same inbox and the eavesdropper
//! the same log, fault tallies included, on all three.

use shs_net::fault::{FaultPlan, FaultRule};
use shs_net::sync::{BroadcastNet, Received};
use shs_net::tcp::TcpSession;
use shs_net::{DeliveryPolicy, Medium};
use shs_sim::core::LatencyModel;
use shs_sim::network::SimMedium;

const SLOTS: usize = 4;
const ROUNDS: [&str; 3] = ["r1", "r2", "r1"];

fn plan() -> FaultPlan {
    FaultPlan::new(0x3ed1a)
        .with(FaultRule::drop().with_probability(0.25))
        .with(FaultRule::duplicate().in_round("r2").with_probability(0.5))
        .with(FaultRule::delay(1).in_round("r1").from(1).at_most(2))
        .with(FaultRule::crash_stop(3, 2))
        .with(FaultRule::corrupt(2).with_probability(0.3))
}

fn payloads(round: &str) -> Vec<Vec<u8>> {
    (0..SLOTS)
        .map(|s| format!("{round}/slot{s}/payload").into_bytes())
        .collect()
}

fn run(net: &mut dyn Medium) -> Vec<Vec<Vec<Received>>> {
    ROUNDS
        .iter()
        .map(|round| net.exchange(round, payloads(round)).expect("exchange"))
        .collect()
}

#[test]
fn one_plan_gives_the_same_inboxes_and_log_on_every_lockstep_medium() {
    let mut real = BroadcastNet::new(SLOTS, DeliveryPolicy::Synchronous);
    real.set_fault_plan(plan());
    let want_inboxes = run(&mut real);
    let want_traffic = real.traffic_snapshot();

    // The plan must actually exercise every rule it carries.
    let f = want_traffic.faults();
    assert!(f.dropped > 0, "{f:?}");
    assert!(f.duplicated > 0, "{f:?}");
    assert!(f.corrupted > 0, "{f:?}");
    assert!(f.delayed > 0 && f.redelivered > 0, "{f:?}");
    assert!(f.crash_silenced > 0, "{f:?}");
    assert_eq!(real.crashed_slots(), vec![3]);

    let mut sim = SimMedium::new(SLOTS, LatencyModel::lan(1));
    sim.set_fault_plan(plan());
    assert_eq!(run(&mut sim), want_inboxes, "SimMedium inboxes");
    assert_eq!(sim.traffic_snapshot(), want_traffic, "SimMedium traffic");

    let mut tcp = TcpSession::over_loopback(SLOTS, Some(plan())).expect("loopback relay");
    assert_eq!(run(&mut tcp), want_inboxes, "TcpSession inboxes");
    assert_eq!(tcp.traffic_snapshot(), want_traffic, "TcpSession traffic");
    tcp.finish();
}
