//! Model-agnosticism (§1.1 flexibility, experiment E10): the framework
//! inherits the communication model of its building blocks — under the
//! asynchronous guaranteed-delivery model with adversarial reordering,
//! every outcome is identical to the synchronous run.

mod common;

use std::time::Duration;

use common::{actors, group, rng};
use shs_core::handshake::run_handshake;
use shs_core::{Actor, HandshakeOptions, SchemeKind};
use shs_net::fault::FaultPlan;
use shs_net::DeliveryPolicy;
use shs_sim::core::LatencyModel;
use shs_sim::network::run_session;

#[test]
fn reordered_delivery_preserves_success() {
    for seed in [1u64, 7, 42] {
        let mut r = rng("ma-success");
        let (_, members) = group(SchemeKind::Scheme1, 4, &mut r);
        let opts = HandshakeOptions {
            delivery: DeliveryPolicy::AdversarialReorder { seed },
            ..Default::default()
        };
        let result = run_handshake(&actors(&members), &opts, &mut r).unwrap();
        assert!(result.outcomes.iter().all(|o| o.accepted), "seed {seed}");
        let key0 = result.outcomes[0].session_key.clone().unwrap();
        assert!(result
            .outcomes
            .iter()
            .all(|o| o.session_key.as_ref() == Some(&key0)));
    }
}

#[test]
fn reordered_delivery_preserves_partial_success_structure() {
    let mut r = rng("ma-partial");
    let (_, a_members) = group(SchemeKind::Scheme1, 2, &mut r);
    let (_, b_members) = group(SchemeKind::Scheme1, 3, &mut r);
    let session = [
        Actor::Member(&a_members[0]),
        Actor::Member(&b_members[0]),
        Actor::Member(&a_members[1]),
        Actor::Member(&b_members[1]),
        Actor::Member(&b_members[2]),
    ];
    // Run synchronously and asynchronously; ∆ sets must agree.
    let sync = run_handshake(&session, &HandshakeOptions::default(), &mut r).unwrap();
    let opts = HandshakeOptions {
        delivery: DeliveryPolicy::AdversarialReorder { seed: 99 },
        ..Default::default()
    };
    let async_run = run_handshake(&session, &opts, &mut r).unwrap();
    for (s, a) in sync.outcomes.iter().zip(&async_run.outcomes) {
        assert_eq!(s.same_group_slots, a.same_group_slots);
        assert_eq!(s.accepted, a.accepted);
        assert_eq!(s.partial_accepted(), a.partial_accepted());
    }
}

#[test]
fn reordered_delivery_preserves_self_distinction() {
    let mut r = rng("ma-sd");
    let (_, members) = group(SchemeKind::Scheme2SelfDistinct, 2, &mut r);
    let session = [
        Actor::Member(&members[0]),
        Actor::Member(&members[1]),
        Actor::Member(&members[0]),
    ];
    let opts = HandshakeOptions {
        delivery: DeliveryPolicy::AdversarialReorder { seed: 5 },
        ..Default::default()
    };
    let result = run_handshake(&session, &opts, &mut r).unwrap();
    assert_eq!(result.outcomes[1].duplicate_slots, vec![0, 2]);
    assert!(!result.outcomes[1].accepted);
}

/// E10 over a fully asynchronous medium: every slot steps its own party
/// machine, as `run_party` does, and each delivery draws its own transit
/// time of 50 µs plus up to 40 ms of jitter, so a slow delivery of one
/// round routinely lands after a fast party's next-round message. The
/// full handshake still completes with one key and no retransmission
/// for every latency seed, and each seed orders the deliveries
/// differently.
#[test]
fn asynchronous_delivery_reaches_agreement() {
    let m = 4;
    let mut r = rng("ma-async");
    let (_, members) = group(SchemeKind::Scheme1, m, &mut r);
    let roster = actors(&members);
    let opts = HandshakeOptions::default();
    let mut fingerprints = Vec::new();
    for seed in 1..=5u64 {
        let latency = LatencyModel {
            base: Duration::from_micros(50),
            jitter: Duration::from_millis(40),
            seed,
        };
        let mut rngs: Vec<_> = (0..m).map(|i| rng(&format!("ma-async-{i}"))).collect();
        let report = run_session(
            &roster,
            &opts,
            FaultPlan::new(seed),
            latency,
            Duration::from_secs(5),
            &mut rngs,
        )
        .expect("simulated session");
        let key = report.outputs[0].outcome.session_key.clone();
        assert!(key.is_some(), "seed {seed}: keyed");
        for (slot, party) in report.outputs.iter().enumerate() {
            assert!(party.outcome.accepted, "seed {seed}: slot {slot} accepts");
            assert_eq!(party.outcome.session_key, key, "seed {seed}: slot {slot}");
            assert_eq!(party.stats.retries, 0, "seed {seed}: slot {slot}");
        }
        assert_eq!(report.traffic.len(), 4 * m, "four rounds, one send each");
        fingerprints.push(report.fingerprint);
    }
    fingerprints.sort_unstable();
    fingerprints.dedup();
    assert_eq!(fingerprints.len(), 5, "each seed schedules differently");
}
