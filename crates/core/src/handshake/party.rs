//! The per-party handshake driver: one slot of the GCD handshake run
//! from its own thread or OS process over a [`PartyLink`].
//!
//! [`super::run_handshake_with_net`] is the *lockstep* driver — it owns
//! every slot and performs whole exchanges on a [`shs_net::Medium`].
//! [`run_party`] is its distributed counterpart: it steps exactly one
//! [`PartyMachine`], broadcasting through a [`PartyLink`] (a framed TCP
//! connection to a relay, as in the `shs-node` daemon) and collecting
//! its co-parties' payloads with a deadline. The simulator
//! (`shs_sim::network::run_session`) steps the same machine from one
//! event loop in virtual time.
//!
//! Both drivers step the same machine, so they cannot drift apart on
//! what a handshake sends or accepts. Only the completion test differs:
//! a party retries a round (under the machine's attempt rule) while its
//! *own* view is missing valid payloads, re-broadcasting its unchanged
//! payload each attempt — which, over the TCP relay's cached
//! retransmission, keeps per-slot wire shape uniform exactly like the
//! lockstep driver's all-slots-retransmit rule.
//!
//! Quiet-abort cover is preserved: an aborting party keeps emitting
//! chaff and decoys of ordinary-failure shape through every remaining
//! round, so on the wire an abort is indistinguishable from a failed
//! handshake.

use crate::config::HandshakeOptions;
use crate::handshake::machine::{PartyMachine, Poll};
use crate::handshake::{Actor, Outcome, SessionStats, SlotCosts};
use crate::CoreError;
use rand::RngCore;
use shs_net::PartyLink;
use std::time::Duration;

/// Everything one party's handshake run produced.
#[derive(Debug)]
pub struct PartyOutcome {
    /// This party's outcome (same acceptance logic as the lockstep
    /// driver, including partial success and quiet aborts).
    pub outcome: Outcome,
    /// This party's cost accounting.
    pub costs: SlotCosts,
    /// Exchange/retry accounting plus transport robustness counters
    /// (reconnects, deadline timeouts) from the link.
    pub stats: SessionStats,
}

/// Runs one party of a handshake session over `link`, as the slot the
/// link was attached to. `collect_timeout` bounds how long each round
/// waits for the co-parties before spending a retransmission.
///
/// A party cannot learn that the medium silenced its own sends: over
/// TCP a crash-stopped party that still hears its co-parties
/// completes the session locally. Only a driver that also owns the
/// medium (the lockstep driver, `shs-sim`) reports
/// [`crate::AbortReason::Crashed`].
///
/// # Errors
///
/// [`CoreError::BadSession`] for sessions of fewer than two slots;
/// transport errors ([`CoreError::Net`]) when the link dies beyond its
/// reconnect budget.
pub fn run_party(
    actor: &Actor<'_>,
    opts: &HandshakeOptions,
    link: &mut dyn PartyLink,
    collect_timeout: Duration,
    rng: &mut (impl RngCore + ?Sized),
) -> Result<PartyOutcome, CoreError> {
    let mut rng = rng;
    let rng: &mut dyn RngCore = &mut rng;
    let mut machine = PartyMachine::new(actor, link.slot(), link.slots(), opts, rng)?;
    loop {
        match machine.step(rng)? {
            Poll::Continue => {}
            Poll::Done => break,
            Poll::Exchange => loop {
                let label = machine.label().to_string();
                link.broadcast(&label, machine.payload().to_vec())?;
                let view = link.collect(&label, collect_timeout, &mut |from, p| {
                    machine.validate(from, p)
                })?;
                for (from, payload) in view.iter().enumerate() {
                    if let Some(payload) = payload {
                        machine.receive(from, payload);
                    }
                }
                if !machine.settle(machine.view_complete()) {
                    break;
                }
            },
        }
    }
    let transport = link.transport_counters();
    let mut party = machine.into_outcome(false);
    party.stats.reconnects = transport.reconnects;
    party.stats.deadline_timeouts = transport.deadline_timeouts;
    Ok(party)
}
