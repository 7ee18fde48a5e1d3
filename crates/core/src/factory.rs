//! The instantiation factory: the **only** module that turns the three
//! configuration enums ([`SchemeKind`], [`CgkdChoice`], [`DgkaChoice`])
//! into concrete substrate implementations.
//!
//! Everything else in the workspace programs against the trait layer in
//! [`crate::substrate`]; the `shs-lint` `factory-dispatch` rule fails
//! the build if a `match` on any of the three enums appears outside
//! this file. Adding a new GSIG/CGKD/DGKA backend therefore means: add
//! the enum variant (and its `ALL` entry) in [`crate::config`],
//! implement the substrate trait, and extend exactly one function here
//! — the compiler and the lint together point at every site that needs
//! attention.

use crate::config::{CgkdChoice, DgkaChoice, SchemeKind};
use crate::substrate::cgkd::{Cgkd, LkhCgkd, SdCgkd, StarCgkd};
use crate::substrate::dgka::{AkeSlot, BdSlot, DgkaSlot, GdhSlot};
use crate::substrate::gsig::{AcjtAuthority, Gsig, KyAuthority};
use crate::{codec, CoreError};
use rand::RngCore;
use shs_cgkd::lkh::LkhController;
use shs_cgkd::sd::SdController;
use shs_cgkd::star::StarController;
use shs_groups::rsa::{RsaGroup, RsaSecret};
use shs_groups::schnorr::SchnorrGroup;
use shs_gsig::params::GsigParams;

/// `GSIG.Setup` for the configured scheme, over a pre-generated
/// safe-RSA setting.
pub fn gsig_authority(
    scheme: SchemeKind,
    params: GsigParams,
    rsa: RsaGroup,
    rsa_secret: RsaSecret,
    rng: &mut dyn RngCore,
) -> Box<dyn Gsig> {
    match scheme {
        SchemeKind::Scheme1 | SchemeKind::Scheme2SelfDistinct => {
            Box::new(KyAuthority::setup(params, rsa, rsa_secret, rng))
        }
        SchemeKind::Scheme1Classic => Box::new(AcjtAuthority::setup(params, rsa, rsa_secret, rng)),
    }
}

/// Serialized signature length for the configured scheme — a public
/// constant of the group; Phase-III decoys must match it.
pub fn sig_len(scheme: SchemeKind, params: &GsigParams) -> usize {
    match scheme {
        SchemeKind::Scheme1 | SchemeKind::Scheme2SelfDistinct => codec::ky_sig_len(params),
        SchemeKind::Scheme1Classic => codec::acjt_sig_len(params),
    }
}

/// `CGKD.Create` for the configured backend.
pub fn cgkd_controller(choice: CgkdChoice, capacity: u32, rng: &mut dyn RngCore) -> Box<dyn Cgkd> {
    match choice {
        CgkdChoice::Lkh => Box::new(LkhCgkd(LkhController::new(capacity, rng))),
        CgkdChoice::SubsetDifference => Box::new(SdCgkd(SdController::new(capacity, rng))),
        CgkdChoice::Star => Box::new(StarCgkd(StarController::new(capacity, rng))),
    }
}

/// One [`DgkaSlot`] per session slot for the configured protocol.
///
/// # Errors
///
/// [`CoreError::Dgka`] when the protocol rejects the parameters
/// (`m < 2`).
pub fn dgka_slots(
    choice: DgkaChoice,
    group: &'static SchnorrGroup,
    m: usize,
    rng: &mut dyn RngCore,
) -> Result<Vec<Box<dyn DgkaSlot>>, CoreError> {
    let mut slots: Vec<Box<dyn DgkaSlot>> = Vec::with_capacity(m);
    for i in 0..m {
        slots.push(dgka_slot(choice, group, m, i, rng)?);
    }
    Ok(slots)
}

/// A single [`DgkaSlot`] for slot `i` of an `m`-party session: what
/// each handshake machine constructs for itself.
///
/// # Errors
///
/// [`CoreError::Dgka`] when the protocol rejects the parameters
/// (`m < 2`).
pub fn dgka_slot(
    choice: DgkaChoice,
    group: &'static SchnorrGroup,
    m: usize,
    i: usize,
    rng: &mut dyn RngCore,
) -> Result<Box<dyn DgkaSlot>, CoreError> {
    Ok(match choice {
        DgkaChoice::BurmesterDesmedt => Box::new(BdSlot::new(group, m, i)),
        DgkaChoice::Gdh2 => Box::new(GdhSlot::new(group, m, i, rng)?),
        DgkaChoice::AuthenticatedBd => Box::new(AkeSlot::new(group, m, i)),
    })
}
