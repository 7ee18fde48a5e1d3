//! The lockstep driver (`run_handshake`) and the per-party driver
//! (`run_party`, one thread per slot over TCP to a loopback relay) must
//! reach the same per-slot verdict on every roster shape: other key
//! agreements, mixed groups with partial success, an outsider, and a
//! Scheme-2 member that occupies two slots.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{group, over_relay, rng};
use shs_core::config::DgkaChoice;
use shs_core::handshake::party::run_party;
use shs_core::handshake::run_handshake;
use shs_core::{Actor, HandshakeOptions, Member, Outcome, SchemeKind};
use shs_net::tcp::TcpParty;

const COLLECT: Duration = Duration::from_secs(5);

/// A roster: the member pool plus, per slot, the pool index of the
/// member seated there (`None` seats an outsider). The pool is shared
/// so every party thread can borrow its own member.
struct Roster {
    pool: Arc<Vec<Member>>,
    seats: Vec<Option<usize>>,
}

fn actor(pool: &[Member], seat: Option<usize>) -> Actor<'_> {
    seat.map_or(Actor::Outsider, |i| Actor::Member(&pool[i]))
}

fn per_party(label: &str, roster: &Roster, opts: HandshakeOptions) -> Vec<Outcome> {
    let bodies: Vec<_> = roster
        .seats
        .iter()
        .copied()
        .enumerate()
        .map(|(i, seat)| {
            let label = format!("{label}-party-{i}");
            let pool = Arc::clone(&roster.pool);
            move |link: &mut TcpParty| {
                let mut r = rng(&label);
                run_party(&actor(&pool, seat), &opts, link, COLLECT, &mut r)
                    .expect("party completes")
                    .outcome
            }
        })
        .collect();
    over_relay(bodies).0
}

fn assert_drivers_agree(label: &str, roster: &Roster, opts: HandshakeOptions) {
    let actors: Vec<Actor<'_>> = roster
        .seats
        .iter()
        .map(|&seat| actor(&roster.pool, seat))
        .collect();
    let mut r = rng(&format!("{label}-lockstep"));
    let lockstep = run_handshake(&actors, &opts, &mut r)
        .expect("lockstep session")
        .outcomes;
    let parties = per_party(label, roster, opts);
    assert_eq!(lockstep.len(), parties.len());
    for (a, b) in lockstep.iter().zip(&parties) {
        let slot = a.slot;
        assert_eq!(a.slot, b.slot);
        assert_eq!(a.accepted, b.accepted, "{label}: slot {slot} accepted");
        assert_eq!(
            a.same_group_slots, b.same_group_slots,
            "{label}: slot {slot} Δ"
        );
        assert_eq!(
            a.verified_slots, b.verified_slots,
            "{label}: slot {slot} verified"
        );
        assert_eq!(
            a.duplicate_slots, b.duplicate_slots,
            "{label}: slot {slot} duplicates"
        );
        assert_eq!(a.abort, b.abort, "{label}: slot {slot} abort");
        assert_eq!(
            a.session_key.is_some(),
            b.session_key.is_some(),
            "{label}: slot {slot} keyed"
        );
    }
}

fn roster(pool: Vec<Member>, seats: Vec<Option<usize>>) -> Roster {
    Roster {
        pool: Arc::new(pool),
        seats,
    }
}

fn members_of(scheme: SchemeKind, n: usize, label: &str) -> Vec<Member> {
    group(scheme, n, &mut rng(label)).1
}

#[test]
fn other_key_agreements_agree() {
    let members = members_of(SchemeKind::Scheme1, 3, "agree-dgka");
    let roster = roster(members, vec![Some(0), Some(1), Some(2)]);
    for dgka in [DgkaChoice::Gdh2, DgkaChoice::AuthenticatedBd] {
        assert_drivers_agree(
            &format!("agree-{dgka:?}"),
            &roster,
            HandshakeOptions::with_dgka(dgka),
        );
    }
}

#[test]
fn mixed_groups_with_partial_success_agree() {
    let mut pool = members_of(SchemeKind::Scheme1, 2, "agree-mixed-a");
    pool.extend(members_of(SchemeKind::Scheme1, 1, "agree-mixed-b"));
    // Group A in slots 0 and 2, the lone group-B member in slot 1.
    let roster = roster(pool, vec![Some(0), Some(2), Some(1)]);
    let opts = HandshakeOptions {
        partial_success: true,
        ..HandshakeOptions::default()
    };
    assert_drivers_agree("agree-mixed", &roster, opts);
}

#[test]
fn outsider_roster_agrees() {
    let members = members_of(SchemeKind::Scheme1, 2, "agree-outsider");
    let roster = roster(members, vec![Some(0), Some(1), None]);
    assert_drivers_agree("agree-outsider", &roster, HandshakeOptions::default());
}

#[test]
fn scheme2_member_in_two_slots_agrees() {
    let members = members_of(SchemeKind::Scheme2SelfDistinct, 2, "agree-sd");
    let roster = roster(members, vec![Some(0), Some(1), Some(0)]);
    assert_drivers_agree("agree-sd", &roster, HandshakeOptions::default());
}
