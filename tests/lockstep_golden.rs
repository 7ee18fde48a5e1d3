//! Golden digests of the lockstep driver.
//!
//! Every key-agreement choice runs on one 4-slot roster (an outsider
//! plus three Scheme-1 members), once fault-free and once with slot 1
//! crash-stopped after its first exchange. Each run folds its whole
//! eavesdropper log, every per-slot outcome, cost and the session stats
//! into one SHA-256 digest, compared against a committed constant. A
//! refactor of the handshake drivers must keep every digest: the
//! digests pin the transcript bytes, so they also pin the order in which
//! the drivers draw from the shared DRBG.

mod common;

use common::{group, rng};
use shs_core::config::DgkaChoice;
use shs_core::handshake::run_handshake_with_net;
use shs_core::{Actor, HandshakeOptions, SchemeKind, SessionResult};
use shs_crypto::sha256::Sha256;
use shs_net::fault::{FaultPlan, FaultRule};
use shs_net::sync::BroadcastNet;
use shs_net::DeliveryPolicy;

fn put_len(h: &mut Sha256, n: usize) {
    h.update(&(n as u64).to_be_bytes());
}

fn put_slots(h: &mut Sha256, slots: &[usize]) {
    put_len(h, slots.len());
    for &s in slots {
        put_len(h, s);
    }
}

fn digest(result: &SessionResult) -> String {
    let mut h = Sha256::new();
    for rec in result.traffic.records() {
        put_len(&mut h, rec.round.len());
        h.update(rec.round.as_bytes());
        put_len(&mut h, rec.from_slot);
        put_len(&mut h, rec.payload.len());
        h.update(&rec.payload);
    }
    for o in &result.outcomes {
        put_len(&mut h, o.slot);
        h.update(&[u8::from(o.accepted)]);
        h.update(format!("{:?}", o.abort).as_bytes());
        put_slots(&mut h, &o.same_group_slots);
        put_slots(&mut h, &o.verified_slots);
        put_slots(&mut h, &o.duplicate_slots);
        match &o.session_key {
            Some(k) => h.update(k.as_bytes()),
            None => h.update(b"no-key"),
        }
    }
    for c in &result.costs {
        h.update(format!("{c:?}").as_bytes());
    }
    h.update(format!("{:?}", result.stats).as_bytes());
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

fn run(dgka: DgkaChoice, crash: bool) -> String {
    let label = format!("lockstep-golden-{dgka:?}-{crash}");
    let mut r = rng(&label);
    let (_, members) = group(SchemeKind::Scheme1, 3, &mut r);
    // The outsider sits in slot 0, so its blinding draw lands between
    // other slots' draws unless every slot finishes Phase I before any
    // slot blinds.
    let mut roster = vec![Actor::Outsider];
    roster.extend(members.iter().map(Actor::Member));
    let opts = HandshakeOptions::with_dgka(dgka);
    let mut net = BroadcastNet::new(roster.len(), DeliveryPolicy::Synchronous);
    if crash {
        net.set_fault_plan(FaultPlan::new(0x601d).with(FaultRule::crash_stop(1, 1)));
    }
    let result = run_handshake_with_net(&roster, &opts, &mut net, &mut r).expect("session runs");
    if crash {
        assert!(
            result.outcomes[1].abort.is_some(),
            "the crashed slot aborts"
        );
    } else {
        assert!(
            result.outcomes.iter().all(|o| !o.accepted),
            "an outsider spoils the full handshake"
        );
    }
    digest(&result)
}

fn check(dgka: DgkaChoice, clean: &str, crashed: &str) {
    assert_eq!(run(dgka, false), clean, "{dgka:?} fault-free");
    assert_eq!(run(dgka, true), crashed, "{dgka:?} under crash_stop(1, 1)");
}

#[test]
fn burmester_desmedt_digests_are_stable() {
    check(
        DgkaChoice::BurmesterDesmedt,
        "831dc0ad8c5acc1a19e7db079850670b487b905d5059ea248cba27d725338560",
        "1be914e4cf4061fdf05afb2be4b39a454eb806b81c8ae982a2b03764a3f56149",
    );
}

#[test]
fn gdh2_digests_are_stable() {
    check(
        DgkaChoice::Gdh2,
        "e529b01598be7f807eb4b728d68c6e87cbc7b516bca9ee299dc6fc0c45f97b36",
        "a39a6ef441d5ac06aa1431f1a30f635f16a69fa6b1c1b97318fdd8f2b9c900e8",
    );
}

#[test]
fn authenticated_bd_digests_are_stable() {
    check(
        DgkaChoice::AuthenticatedBd,
        "f27b573b6338ac81a53e5a354b1d74052d5c1e8e848780ac2aaa81bc5a91978d",
        "0747d8b3d0e86df3b4ce00326fae228ce33270fee925662281b10594c2a661fc",
    );
}
