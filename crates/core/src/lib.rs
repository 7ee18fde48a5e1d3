//! **`shs-core`** — the GCD secret-handshake framework of Tsudik & Xu
//! (PODC 2005 / full version): multi-party anonymous and unobservable
//! authentication with reusable credentials.
//!
//! GCD is a *compiler* that turns three building blocks — a **G**roup
//! signature scheme (`shs-gsig`), a **C**entralized group key distribution
//! scheme (`shs-cgkd`) and a **D**istributed group key agreement scheme
//! (`shs-dgka`) — into a secret handshake scheme: `m ≥ 2` parties learn
//! that they all belong to the same group *iff* they all do, and learn
//! nothing otherwise.
//!
//! # Quickstart
//!
//! ```rust
//! use shs_core::{Actor, GroupAuthority, GroupConfig, HandshakeOptions, SchemeKind};
//! use shs_core::handshake::run_handshake;
//!
//! # fn main() -> Result<(), shs_core::CoreError> {
//! let mut rng = shs_crypto::drbg::HmacDrbg::from_seed(b"quickstart-doc");
//! // Build a deterministic test-sized group with three members. Every
//! // existing member processes each join's bulletin-board update.
//! let mut ga = shs_core::fixtures::test_authority(SchemeKind::Scheme1, &mut rng);
//! let (mut alice, _) = ga.admit(&mut rng)?;
//! let (mut bob, update) = ga.admit(&mut rng)?;
//! alice.apply_update(&update)?;
//! let (carol, update) = ga.admit(&mut rng)?;
//! alice.apply_update(&update)?;
//! bob.apply_update(&update)?;
//!
//! let result = run_handshake(
//!     &[Actor::Member(&alice), Actor::Member(&bob), Actor::Member(&carol)],
//!     &HandshakeOptions::default(),
//!     &mut rng,
//! )?;
//! assert!(result.outcomes.iter().all(|o| o.accepted));
//! # Ok(())
//! # }
//! ```
//!
//! # Module map
//!
//! The crate is organised around the compiler metaphor:
//!
//! * [`substrate`] — the three building-block **contracts**
//!   ([`substrate::Gsig`]/[`substrate::GsigCredential`],
//!   [`substrate::Cgkd`]/[`substrate::CgkdSlot`],
//!   [`substrate::DgkaSlot`]) plus their concrete backends (KY, ACJT;
//!   LKH, Subset-Difference, Star; BD, GDH.2, authenticated BD).
//! * [`factory`] — the **only** module that dispatches on
//!   [`SchemeKind`], [`config::CgkdChoice`] and [`config::DgkaChoice`]
//!   to construct backends (enforced by the `shs-lint`
//!   `factory-dispatch` rule).
//! * [`config`] — the instantiation matrix itself: the three enums,
//!   their `ALL` arrays, [`GroupConfig`] and [`HandshakeOptions`].
//! * [`authority`] / [`member`] / [`bulletin`] — the group lifecycle:
//!   `CreateGroup`, `AdmitMember`, `RemoveUser`, `Update`, `TraceUser`.
//! * [`handshake`] — the session: one sans-IO per-slot state machine
//!   ([`handshake::machine::PartyMachine`]) that owns the three phases and
//!   the attempt rule, the drivers that step it (the lockstep
//!   [`handshake::run_handshake_with_net`] and the per-party
//!   [`handshake::party::run_party`]), and every decoy construction
//!   (`decoy`).
//! * [`codec`] / [`wire`] — fixed-width serialization; [`transcript`] —
//!   the public handshake transcript and tracing outcomes; [`roles`] /
//!   [`fixtures`] — test and experiment scaffolding.
//!
//! See `DESIGN.md` at the repository root for the full system inventory
//! (§10 specifies the substrate contracts) and the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authority;
pub mod bulletin;
pub mod codec;
pub mod config;
pub mod factory;
pub mod fixtures;
pub mod handshake;
pub mod member;
mod pool;
pub mod roles;
pub mod service;
pub mod substrate;
pub mod transcript;
pub mod wire;

pub use authority::GroupAuthority;
pub use bulletin::BulletinBoard;
pub use config::{GroupConfig, HandshakeOptions, SchemeKind, SessionBudget, TracePolicy};
pub use handshake::party::{run_party, PartyOutcome};
pub use handshake::{AbortReason, Actor, Outcome, SessionResult, SessionStats, SlotCosts};
pub use member::{EpochBroadcast, GroupUpdate, Member};
pub use transcript::{HandshakeTranscript, TraceError, TraceOutcome};

/// Errors produced by the framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreError {
    /// A CGKD operation failed.
    Cgkd(shs_cgkd::CgkdError),
    /// A GSIG operation failed.
    Gsig(shs_gsig::GsigError),
    /// A DGKA operation failed.
    Dgka(shs_dgka::DgkaError),
    /// A network operation failed.
    Net(shs_net::NetError),
    /// A wire encoding failed to parse.
    Wire(wire::WireError),
    /// A bulletin-board update failed authentication or ordering.
    UpdateRejected,
    /// The member id is unknown to this authority.
    UnknownMember,
    /// The handshake session was malformed (fewer than two actors,
    /// mismatched medium, inconsistent sender slots).
    BadSession,
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Cgkd(e) => write!(f, "key distribution: {e}"),
            CoreError::Gsig(e) => write!(f, "group signature: {e}"),
            CoreError::Dgka(e) => write!(f, "key agreement: {e}"),
            CoreError::Net(e) => write!(f, "network: {e}"),
            CoreError::Wire(e) => write!(f, "wire format: {e}"),
            CoreError::UpdateRejected => write!(f, "group update rejected"),
            CoreError::UnknownMember => write!(f, "unknown member"),
            CoreError::BadSession => write!(f, "malformed handshake session"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Cgkd(e) => Some(e),
            CoreError::Gsig(e) => Some(e),
            CoreError::Dgka(e) => Some(e),
            CoreError::Net(e) => Some(e),
            CoreError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wire::WireError> for CoreError {
    fn from(e: wire::WireError) -> Self {
        CoreError::Wire(e)
    }
}

impl From<shs_net::NetError> for CoreError {
    fn from(e: shs_net::NetError) -> Self {
        CoreError::Net(e)
    }
}

impl From<shs_cgkd::CgkdError> for CoreError {
    fn from(e: shs_cgkd::CgkdError) -> Self {
        CoreError::Cgkd(e)
    }
}

impl From<shs_gsig::GsigError> for CoreError {
    fn from(e: shs_gsig::GsigError) -> Self {
        CoreError::Gsig(e)
    }
}

impl From<shs_dgka::DgkaError> for CoreError {
    fn from(e: shs_dgka::DgkaError) -> Self {
        CoreError::Dgka(e)
    }
}
