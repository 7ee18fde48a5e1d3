//! `GCD.Handshake` — the three-phase multi-party secret handshake of §7,
//! executed over the anonymous broadcast medium of `shs-net`.
//!
//! * **Phase I (Preparation)** — distributed group key agreement
//!   (Burmester–Desmedt by default; GDH.2 and the Katz–Yung
//!   authenticated variant selectable) yields `k*`; each party blinds it
//!   with its CGKD group key: `k'_i = k* ⊕ k_i`.
//! * **Phase II (Preliminary handshake)** — each party publishes
//!   `MAC(k'_i, s_i ‖ i)`; a tag verifies under `k'_j` iff the two parties
//!   hold the same group key. Each party thereby learns its co-member set
//!   `Δ` (the partially-successful-handshake extension).
//! * **Phase III (Full handshake)** — parties in a big-enough `Δ` publish
//!   `(θ_i, δ_i)` where `δ_i = ENC(pk_T, k'_i)` and
//!   `θ_i = SENC(k'_i, GSIG.Sign(δ_i ‖ sid))`; everyone else publishes
//!   decoys drawn uniformly from the same ciphertext spaces, so failures
//!   are indistinguishable from successes on the wire. Scheme 2
//!   additionally forces the common `T7 = H→QR(transcript)` and flags
//!   duplicate `T6` values (self-distinction).
//!
//! # Module structure
//!
//! This module owns the public session types and the lockstep driver.
//! The protocol itself lives once, in `machine`: a sans-IO
//! [`machine::PartyMachine`] per slot runs the phase sequence and the
//! attempt rule, and every driver only moves its payloads —
//! [`run_handshake_with_net`] steps all slots over one
//! [`shs_net::Medium`], [`party::run_party`] steps one slot over a
//! [`shs_net::PartyLink`], and `shs-sim` steps all slots under virtual
//! time. `decoy` holds every decoy/chaff construction in one place,
//! since abort indistinguishability depends on their shapes.
//!
//! # Hardened runtime
//!
//! The driver tolerates a lossy, malicious medium (see `shs-net`'s
//! fault injection): every broadcast exchange is retried within the
//! session's [`crate::config::SessionBudget`] when expected messages are
//! missing or undecodable, and a slot that still cannot proceed
//! **aborts structurally** — [`Outcome::abort`] carries an
//! [`AbortReason`] instead of the session hanging or returning a global
//! error. Crucially for unobservability, an aborting slot keeps
//! participating as a *decoy sender*: it transmits chaff and decoy
//! payloads of exactly the shapes an ordinary failed handshake would
//! produce, so an eavesdropper cannot tell a fault-induced abort from a
//! run-of-the-mill membership mismatch.

pub(crate) mod decoy;
pub mod machine;
pub mod party;

use crate::config::{HandshakeOptions, SchemeKind};
use crate::member::Member;
use crate::transcript::HandshakeTranscript;
use crate::CoreError;
use machine::{PartyMachine, Poll};
use party::PartyOutcome;
use rand::RngCore;
use shs_crypto::Key;
use shs_groups::schnorr::{SchnorrGroup, SchnorrPreset};
use shs_gsig::params::{GsigParams, GsigPreset};
use shs_net::observe::TrafficLog;
use shs_net::sync::BroadcastNet;
use shs_net::Medium;

/// A participant slot in a handshake session.
pub enum Actor<'a> {
    /// A group member with real credentials.
    Member(&'a Member),
    /// An adversary without credentials for any relevant group: it runs
    /// the public DGKA protocol honestly but holds a random "group key"
    /// and publishes decoys in Phase III. Passing several `Outsider`
    /// slots models an adversary playing multiple roles
    /// (the "A plays the roles of multiple participants" clauses of
    /// Fig. 2).
    Outsider,
}

impl std::fmt::Debug for Actor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Actor::Member(m) => write!(f, "Actor::Member({})", m.id()),
            Actor::Outsider => write!(f, "Actor::Outsider"),
        }
    }
}

/// Why a slot abandoned a session instead of completing it.
///
/// Aborting is *quiet*: the slot keeps transmitting decoy traffic of the
/// ordinary failed-handshake shape, so the reason is visible only in its
/// local [`Outcome`], never on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// Phase I key agreement never completed: contributions stayed
    /// missing or undecodable after the retry budget.
    KeyAgreement,
    /// The session's exchange budget ran out while messages were still
    /// missing.
    BudgetExhausted,
    /// The slot itself crash-stopped (fault injection): the medium
    /// suppressed its sends mid-session.
    Crashed,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::KeyAgreement => write!(f, "phase I key agreement incomplete"),
            AbortReason::BudgetExhausted => write!(f, "session exchange budget exhausted"),
            AbortReason::Crashed => write!(f, "slot crash-stopped"),
        }
    }
}

/// Per-slot result of a handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// This party's slot.
    pub slot: usize,
    /// Did the *full* handshake succeed (all parties same group, all
    /// signatures valid, no duplicate participants)? This is the paper's
    /// binary `Handshake(∆) = 1`.
    pub accepted: bool,
    /// The co-member set `Δ` this party observed (slots whose Phase-II
    /// tags verified, including itself).
    pub same_group_slots: Vec<usize>,
    /// Slots of `Δ` whose Phase-III group signature verified.
    pub verified_slots: Vec<usize>,
    /// Slots flagged by self-distinction (duplicate `T6`), scheme 2 only.
    pub duplicate_slots: Vec<usize>,
    /// Session key established with the accepted partners (present when
    /// this party completed a full or partial handshake).
    pub session_key: Option<Key>,
    /// Why this slot abandoned the session, if it did. `None` for every
    /// slot that ran the protocol to completion — including ordinary
    /// failed handshakes (wrong group, bad signatures), which are
    /// *completions*, not aborts.
    pub abort: Option<AbortReason>,
}

impl Outcome {
    /// Did this party complete at least a *partial* handshake
    /// (`|Δ| ≥ 2` with all of `Δ` verified)?
    pub fn partial_accepted(&self) -> bool {
        self.session_key.is_some()
    }
}

/// Per-slot cost accounting for the complexity experiments (E1/E2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotCosts {
    /// Modular exponentiations performed by this slot.
    pub modexp: u64,
    /// Messages this slot broadcast.
    pub messages_sent: u64,
    /// Bytes this slot broadcast.
    pub bytes_sent: u64,
}

/// Session-level accounting of the hardened runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Broadcast exchanges performed (base rounds + retransmissions).
    pub exchanges: u32,
    /// Retransmission exchanges among those.
    pub retries: u32,
    /// Did the session hit
    /// [`crate::config::SessionBudget::max_exchanges`] with messages
    /// still missing?
    pub budget_exhausted: bool,
    /// Frames the medium shed because a receiver stopped draining
    /// (previously absorbed silently by the transport; surfaced here so
    /// operators can see backpressure loss per session).
    pub backpressure_dropped: u64,
    /// Successful transport re-attachments after lost connections
    /// (always zero on in-process media).
    pub reconnects: u64,
    /// Read/write deadlines that expired on live transport connections.
    pub deadline_timeouts: u64,
}

/// Everything a handshake session produced.
#[derive(Debug)]
pub struct SessionResult {
    /// Per-slot outcomes.
    pub outcomes: Vec<Outcome>,
    /// The `{(θ_i, δ_i)}` transcript for `GCD.TraceUser` (empty under
    /// [`crate::config::TracePolicy::PreliminaryOnly`]).
    pub transcript: HandshakeTranscript,
    /// The eavesdropper's traffic log.
    pub traffic: TrafficLog,
    /// Per-slot cost accounting.
    pub costs: Vec<SlotCosts>,
    /// Exchange/retry accounting (the cost of surviving a lossy medium).
    pub stats: SessionStats,
}

/// Effective parameter view for one slot (outsiders mimic the session's
/// dominant configuration).
#[derive(Clone, Copy)]
pub(crate) struct SlotParams {
    pub(crate) scheme: SchemeKind,
    pub(crate) params: GsigParams,
}

/// Runs a handshake session among `actors` on a fresh anonymous broadcast
/// medium configured per `opts`.
///
/// # Errors
///
/// [`CoreError::BadSession`] for fewer than two actors; network and codec
/// errors are propagated.
pub fn run_handshake(
    actors: &[Actor<'_>],
    opts: &HandshakeOptions,
    rng: &mut (impl RngCore + ?Sized),
) -> Result<SessionResult, CoreError> {
    let mut net = BroadcastNet::new(actors.len(), opts.delivery);
    run_handshake_with_net(actors, opts, &mut net, rng)
}

/// [`run_handshake`] over a caller-provided medium (so tests can install
/// man-in-the-middle interceptors or inspect traffic mid-run).
///
/// This is the lockstep driver: it steps one [`machine::PartyMachine`]
/// per slot, every slot through each stage before any slot runs the
/// next, so the shared `rng` is drawn stage by stage across slots. Each
/// broadcast round is one [`Medium::exchange`] of every slot's payload,
/// retransmitted by all slots together while any slot's view is
/// incomplete (which keeps the per-slot wire shape uniform). Phase-III
/// verification fans out onto the worker pool; a slot the medium reports
/// crash-stopped ends [`AbortReason::Crashed`].
///
/// # Errors
///
/// See [`run_handshake`].
pub fn run_handshake_with_net(
    actors: &[Actor<'_>],
    opts: &HandshakeOptions,
    net: &mut dyn Medium,
    rng: &mut (impl RngCore + ?Sized),
) -> Result<SessionResult, CoreError> {
    let mut rng = rng;
    let rng: &mut dyn RngCore = &mut rng;
    let m = actors.len();
    if m < 2 || net.slots() != m {
        return Err(CoreError::BadSession);
    }
    let mut machines = Vec::with_capacity(m);
    for (i, actor) in actors.iter().enumerate() {
        machines.push(PartyMachine::in_session(actors, actor, i, m, opts, rng)?);
    }
    let mut transcript = HandshakeTranscript::default();
    loop {
        if machines.iter().all(PartyMachine::verify_pending) {
            // Each member slot verifies its m−1 peer frames independently
            // of every other slot; results come back in slot order, so the
            // outcome is byte-identical to a sequential run.
            transcript.sid = machines[0].sid().to_vec();
            for machine in &machines {
                transcript.entries.push(machine.transcript_entry()?);
            }
            let workers = crate::pool::verify_workers(m, opts.parallel_verify);
            let verified = crate::pool::run_indexed(m, workers, |i| machines[i].verify());
            for (machine, v) in machines.iter_mut().zip(verified) {
                machine.record_verify(v);
            }
        }
        // Every slot passes through the same stages, so the polls agree.
        let mut poll = Poll::Done;
        for machine in &mut machines {
            poll = machine.step(rng)?;
        }
        match poll {
            Poll::Continue => {}
            Poll::Exchange => exchange(&mut machines, net)?,
            Poll::Done => break,
        }
    }
    let crashed = net.crashed_slots();
    let parties: Vec<PartyOutcome> = machines
        .into_iter()
        .enumerate()
        .map(|(i, machine)| machine.into_outcome(crashed.contains(&i)))
        .collect();
    let traffic = net.traffic_snapshot();
    let transport = net.transport_counters();
    // Every slot settled on the same global completion test, so slot 0's
    // exchange accounting is the session's.
    let stats = SessionStats {
        backpressure_dropped: traffic.faults().backpressure_dropped,
        reconnects: transport.reconnects,
        deadline_timeouts: transport.deadline_timeouts,
        ..parties[0].stats
    };
    let costs = parties.iter().map(|p| p.costs).collect();
    let outcomes = parties.into_iter().map(|p| p.outcome).collect();
    Ok(SessionResult {
        outcomes,
        transcript,
        traffic,
        costs,
        stats,
    })
}

/// One broadcast round of every slot: exchanges the slots' payloads,
/// retransmitting all of them together until every view is complete or
/// the attempt rule gives up. Every machine settles on the same global
/// completion test, so they all keep the same exchange count.
fn exchange(machines: &mut [PartyMachine<'_>], net: &mut dyn Medium) -> Result<(), CoreError> {
    loop {
        let label = machines[0].label().to_string();
        let outgoing = machines.iter().map(|mc| mc.payload().to_vec()).collect();
        let inboxes = net.exchange(&label, outgoing)?;
        for (machine, inbox) in machines.iter_mut().zip(&inboxes) {
            for rcv in inbox {
                machine.receive(rcv.from_slot, &rcv.payload);
            }
        }
        let complete = machines.iter().all(PartyMachine::view_complete);
        let mut retry = false;
        for machine in machines.iter_mut() {
            retry = machine.settle(complete);
        }
        if !retry {
            return Ok(());
        }
    }
}

fn session_group(actors: &[Actor<'_>]) -> &'static SchnorrGroup {
    for a in actors {
        if let Actor::Member(member) = a {
            return member.tracing_group;
        }
    }
    SchnorrGroup::system_wide(SchnorrPreset::Test)
}

fn mimic_params(actors: &[Actor<'_>]) -> SlotParams {
    for a in actors {
        if let Actor::Member(member) = a {
            return SlotParams {
                scheme: member.scheme(),
                params: *member.credential().params(),
            };
        }
    }
    SlotParams {
        scheme: SchemeKind::Scheme1,
        params: GsigParams::preset(GsigPreset::Test),
    }
}
