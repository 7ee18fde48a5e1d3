//! Shared helpers for the integration tests.
#![allow(dead_code)] // not every test binary uses every helper

pub mod conformance;

use std::time::Duration;

use rand::RngCore;
use shs_core::fixtures;
use shs_core::{Actor, GroupAuthority, Member, SchemeKind};
use shs_crypto::drbg::HmacDrbg;
use shs_net::observe::TrafficLog;
use shs_net::tcp::{RelayConfig, RelayHandle, SupervisorConfig, TcpParty};

/// Deterministic RNG for a test.
pub fn rng(label: &str) -> HmacDrbg {
    HmacDrbg::from_seed(label.as_bytes())
}

/// A group with `n` fully-updated members.
pub fn group(
    scheme: SchemeKind,
    n: usize,
    rng: &mut impl RngCore,
) -> (GroupAuthority, Vec<Member>) {
    fixtures::group_with_members(scheme, n, rng).expect("group fixture")
}

/// Borrows members as handshake actors.
pub fn actors(members: &[Member]) -> Vec<Actor<'_>> {
    members.iter().map(Actor::Member).collect()
}

/// Runs one body per seat of a loopback TCP relay, each on its own
/// thread over a [`TcpParty`] attached to that seat, and returns the
/// bodies' results in seat order plus the relay-side eavesdropper log.
/// Every party leaves gracefully; the relay must see the session end.
pub fn over_relay<T, F>(bodies: Vec<F>) -> (Vec<T>, TrafficLog)
where
    T: Send + 'static,
    F: FnOnce(&mut TcpParty) -> T + Send + 'static,
{
    let config = RelayConfig {
        gather_deadline: Duration::from_secs(10),
        ..RelayConfig::new(bodies.len())
    };
    let relay = RelayHandle::bind("127.0.0.1:0", config, None).expect("bind relay");
    let addr = relay.addr();
    let seats: Vec<_> = bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| {
            std::thread::spawn(move || {
                let sup = SupervisorConfig {
                    seed: i as u64,
                    ..SupervisorConfig::default()
                };
                let mut link = TcpParty::attach(addr, sup, Some(i)).expect("attach");
                let out = body(&mut link);
                link.finish();
                out
            })
        })
        .collect();
    let outputs = seats
        .into_iter()
        .map(|s| s.join().expect("party thread"))
        .collect();
    assert!(relay.wait_done(Duration::from_secs(5)), "relay drained");
    let log = relay.traffic();
    relay.shutdown();
    (outputs, log)
}
