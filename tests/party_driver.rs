//! The per-party driver seam: `run_party` over real TCP must agree with
//! the lockstep driver's acceptance logic (they step the same machine,
//! so disagreement would mean the drivers diverged).

mod common;

use std::time::Duration;

use common::{group, over_relay, rng};
use shs_core::handshake::party::run_party;
use shs_core::{Actor, HandshakeOptions, SchemeKind};
use shs_net::tcp::TcpParty;

const COLLECT: Duration = Duration::from_secs(5);

/// Three co-members, each on its own thread behind a TCP link to one
/// relay: everyone accepts and derives the same session key — exactly
/// what the lockstep driver concludes for the same configuration.
#[test]
fn tcp_parties_agree_with_lockstep_acceptance() {
    let mut r = rng("party-hub-accept");
    let (_, members) = group(SchemeKind::Scheme1, 3, &mut r);
    let opts = HandshakeOptions::default();
    let bodies: Vec<_> = members
        .into_iter()
        .enumerate()
        .map(|(i, member)| {
            move |link: &mut TcpParty| {
                let mut r = rng(&format!("party-hub-accept-{i}"));
                run_party(&Actor::Member(&member), &opts, link, COLLECT, &mut r)
                    .expect("party completes")
            }
        })
        .collect();
    let (results, traffic) = over_relay(bodies);
    let keys: Vec<_> = results
        .iter()
        .map(|p| p.outcome.session_key.clone().expect("keyed"))
        .collect();
    for (i, p) in results.iter().enumerate() {
        assert!(p.outcome.accepted, "slot {i} accepts");
        assert_eq!(p.outcome.slot, i);
        assert_eq!(p.outcome.same_group_slots, vec![0, 1, 2]);
        assert_eq!(p.outcome.verified_slots, vec![0, 1, 2]);
        assert!(p.outcome.abort.is_none());
        assert_eq!(keys[i], keys[0], "slot {i} derived the group key");
        assert!(p.stats.exchanges > 0);
    }
    assert!(!traffic.is_empty(), "the eavesdropper saw the session");
}

/// Mixed groups over party links: an ordinary failure — completions
/// without keys, not aborts — matching the lockstep semantics.
#[test]
fn tcp_parties_fail_ordinarily_across_groups() {
    let mut r = rng("party-hub-mixed");
    let (_, mut ours) = group(SchemeKind::Scheme1, 2, &mut r);
    let (_, mut foreign) = group(SchemeKind::Scheme1, 1, &mut r);
    let mut members = Vec::new();
    members.append(&mut ours);
    members.append(&mut foreign);
    let opts = HandshakeOptions {
        partial_success: false,
        ..Default::default()
    };
    let bodies: Vec<_> = members
        .into_iter()
        .enumerate()
        .map(|(i, member)| {
            move |link: &mut TcpParty| {
                let mut r = rng(&format!("party-hub-mixed-{i}"));
                run_party(&Actor::Member(&member), &opts, link, COLLECT, &mut r)
                    .expect("party completes")
            }
        })
        .collect();
    let (results, _) = over_relay(bodies);
    for (i, p) in results.iter().enumerate() {
        assert!(!p.outcome.accepted, "slot {i} rejects");
        assert!(p.outcome.session_key.is_none());
        assert!(
            p.outcome.abort.is_none(),
            "an ordinary failure is a completion, not an abort"
        );
    }
    // The co-members still found each other in Phase II.
    assert_eq!(results[0].outcome.same_group_slots, vec![0, 1]);
    assert_eq!(results[1].outcome.same_group_slots, vec![0, 1]);
    assert_eq!(results[2].outcome.same_group_slots, vec![2]);
}

/// Two co-members, two real TCP connections through a relay: the full
/// handshake completes across the wire with a shared key.
#[test]
fn tcp_parties_complete_a_real_network_handshake() {
    let mut r = rng("party-tcp-accept");
    let (_, members) = group(SchemeKind::Scheme1, 2, &mut r);
    let opts = HandshakeOptions::default();
    let bodies: Vec<_> = members
        .into_iter()
        .enumerate()
        .map(|(i, member)| {
            move |link: &mut TcpParty| {
                let mut r = rng(&format!("party-tcp-accept-{i}"));
                run_party(&Actor::Member(&member), &opts, link, COLLECT, &mut r)
                    .expect("party completes")
            }
        })
        .collect();
    let (results, log) = over_relay(bodies);
    let keys: Vec<_> = results
        .iter()
        .map(|p| p.outcome.session_key.clone().expect("keyed"))
        .collect();
    for (i, p) in results.iter().enumerate() {
        assert!(p.outcome.accepted, "slot {i} accepts over TCP");
        assert_eq!(p.outcome.same_group_slots, vec![0, 1]);
        assert!(p.outcome.abort.is_none());
        assert_eq!(keys[i], keys[0]);
    }
    assert!(!log.is_empty(), "relay-side eavesdropper saw the session");
}
