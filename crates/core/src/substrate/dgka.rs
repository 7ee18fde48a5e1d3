//! DGKA substrate: phase-structured slot state machines for Phase I.
//!
//! A [`DgkaSlot`] is one party of the distributed group key agreement,
//! decomposed into the uniform per-round cycle that
//! [`crate::handshake::machine::PartyMachine`] drives:
//!
//! 1. `emit(t)` — produce this slot's round-`t` wire payload (chaff of
//!    the protocol-determined length when the slot has aborted or is
//!    inactive this round, so the wire shape never reveals either),
//! 2. `validate(t, from, payload)` — receiver-side acceptance test that
//!    decides whether a delivery counts (and so whether to spend
//!    retransmission budget),
//! 3. `absorb(t, view, …)` — consume the round's view,
//! 4. `finish()` — output [`Phase1Slot`] state, real or decoy.
//!
//! The machine meters `emit`/`absorb`/`finish` into the slot's
//! [`crate::handshake::SlotCosts`]; work done inside `validate` is
//! *not* metered (it models the receiver's cheap wire filtering —
//! decode checks for BD/GDH; for the authenticated variant it also
//! re-checks signatures, whose metered counterpart runs in `absorb`).
//!
//! Implementations are constructed exclusively by
//! [`crate::factory::dgka_slot`]. Wire formats and round labels are
//! part of each implementation's contract (fault-injection plans match
//! on them) and must stay stable.

use crate::handshake::decoy::{chaff, decoy_phase1};
use crate::handshake::AbortReason;
use crate::{codec, CoreError};
use rand::RngCore;
use shs_bigint::Ubig;
use shs_crypto::Key;
use shs_dgka::{ake, bd, gdh, sig};
use shs_groups::schnorr::SchnorrGroup;

/// The per-slot output of Phase I: session id, agreed key `k*`, and the
/// raw per-sender contributions (exactly the bytes this slot saw on the
/// wire), which feed the Phase-II MACs and the self-distinction basis.
pub struct Phase1Slot {
    /// Session id `sid`.
    pub sid: Vec<u8>,
    /// The agreed group-session key `k*` (random for aborted slots).
    pub k_star: Key,
    /// Per-sender framed protocol messages as this slot saw them
    /// (empty where nothing valid ever arrived).
    pub contributions: Vec<Vec<u8>>,
}

/// One party of a distributed group key agreement, as a round-driven
/// state machine (`DGKA.{Contribute, Derive}` of the paper's §4
/// interface, unrolled into broadcast rounds).
///
/// The driving machine guarantees: `emit`, then `validate` (as other
/// slots' payloads arrive), then `absorb`, for `t = 0 .. rounds()`, then
/// one `finish`. A slot must stay silent about its own failures —
/// aborting means emitting chaff of the correct length from then on and
/// reporting the abort only through `finish`.
///
/// `Sync` because a slot lives inside its handshake machine, which the
/// lockstep driver shares with worker threads for Phase-III verification.
pub trait DgkaSlot: Send + Sync {
    /// Number of broadcast rounds.
    fn rounds(&self) -> usize;

    /// Wire label of round `t` (fault plans and traffic logs key on it).
    fn round_label(&self, t: usize) -> String;

    /// Produces this slot's round-`t` payload (chaff when aborted or
    /// inactive — never nothing: uniform shape is the abort cover).
    fn emit(&mut self, t: usize, rng: &mut dyn RngCore) -> Vec<u8>;

    /// Receiver-side acceptance test for a round-`t` delivery from slot
    /// `from`. Rejected payloads are treated as never received, which
    /// is what triggers retransmission spending.
    fn validate(&self, t: usize, from: usize, payload: &[u8]) -> bool;

    /// Consumes the round-`t` view (`view[j]` = best valid copy of slot
    /// `j`'s payload). `incomplete` carries the attempt rule's abort
    /// reason when some sender's payload never validly arrived.
    fn absorb(
        &mut self,
        t: usize,
        view: &[Option<Vec<u8>>],
        incomplete: Option<AbortReason>,
        rng: &mut dyn RngCore,
    );

    /// Derives the slot's Phase-I output. Aborted slots return decoy
    /// state (random `sid`/`k*`) plus their abort reason.
    fn finish(&mut self, rng: &mut dyn RngCore) -> (Phase1Slot, Option<AbortReason>);
}

// ---------------------------------------------------------------------------
// Shared wire codecs
// ---------------------------------------------------------------------------

pub(crate) fn encode_elem(group: &SchnorrGroup, sender: usize, v: &Ubig) -> Vec<u8> {
    let mut w = crate::wire::Writer::new();
    w.put_u32(sender as u32);
    w.put_ubig_fixed(v, codec::p_width(group));
    w.into_bytes()
}

pub(crate) fn decode_elem(
    group: &SchnorrGroup,
    from: usize,
    bytes: &[u8],
) -> Result<(usize, Ubig), CoreError> {
    let mut r = crate::wire::Reader::new(bytes);
    let sender = r.take_u32()? as usize;
    let v = r.take_ubig_fixed(codec::p_width(group))?;
    r.finish()?;
    if sender != from {
        return Err(CoreError::BadSession);
    }
    Ok((sender, v))
}

fn elem_len(group: &SchnorrGroup) -> usize {
    4 + codec::p_width(group)
}

// ---------------------------------------------------------------------------
// Burmester–Desmedt
// ---------------------------------------------------------------------------

/// One Burmester–Desmedt party: two broadcast rounds, everyone active
/// in both. A slot's "contribution" is its framed `(z_i, X_i)` pair.
pub(crate) struct BdSlot {
    group: &'static SchnorrGroup,
    m: usize,
    index: usize,
    party: Option<bd::Party<'static>>,
    r1_view: Vec<Option<Vec<u8>>>,
    r2_view: Vec<Option<Vec<u8>>>,
    abort: Option<AbortReason>,
}

impl BdSlot {
    pub(crate) fn new(group: &'static SchnorrGroup, m: usize, index: usize) -> BdSlot {
        BdSlot {
            group,
            m,
            index,
            party: None,
            r1_view: Vec::new(),
            r2_view: Vec::new(),
            abort: None,
        }
    }
}

/// Decodes every present element of a round view, dropping entries that
/// fail (the exchange already validated them; decode defensively
/// anyway).
fn decode_elem_round(group: &SchnorrGroup, view: &[Option<Vec<u8>>]) -> Vec<(usize, Ubig)> {
    view.iter()
        .enumerate()
        .filter_map(|(j, p)| decode_elem(group, j, p.as_deref()?).ok())
        .collect()
}

impl DgkaSlot for BdSlot {
    fn rounds(&self) -> usize {
        2
    }

    fn round_label(&self, t: usize) -> String {
        if t == 0 { "dgka-r1" } else { "dgka-r2" }.to_string()
    }

    fn emit(&mut self, t: usize, rng: &mut dyn RngCore) -> Vec<u8> {
        if t == 0 {
            return match bd::Party::start(self.group, self.m, self.index, rng) {
                Ok((party, r1)) => {
                    let payload = encode_elem(self.group, self.index, &r1.z);
                    self.party = Some(party);
                    payload
                }
                Err(_) => {
                    self.abort = Some(AbortReason::KeyAgreement);
                    chaff(elem_len(self.group), rng)
                }
            };
        }
        // Round 2 (any later round is unreachable; chaff keeps it safe).
        if t == 1 && self.abort.is_none() {
            let msgs: Vec<bd::Round1> = decode_elem_round(self.group, &self.r1_view)
                .into_iter()
                .map(|(sender, z)| bd::Round1 { sender, z })
                .collect();
            if msgs.len() == self.m {
                if let Some(party) = self.party.as_mut() {
                    match party.round2(&msgs) {
                        Ok(r2) => return encode_elem(self.group, self.index, &r2.x),
                        Err(_) => self.abort = Some(AbortReason::KeyAgreement),
                    }
                }
            } else {
                self.abort.get_or_insert(AbortReason::KeyAgreement);
            }
        }
        chaff(elem_len(self.group), rng)
    }

    fn validate(&self, _t: usize, from: usize, payload: &[u8]) -> bool {
        decode_elem(self.group, from, payload).is_ok()
    }

    fn absorb(
        &mut self,
        t: usize,
        view: &[Option<Vec<u8>>],
        incomplete: Option<AbortReason>,
        _rng: &mut dyn RngCore,
    ) {
        if let Some(reason) = incomplete {
            self.abort.get_or_insert(reason);
        }
        if t == 0 {
            self.r1_view = view.to_vec();
        } else {
            self.r2_view = view.to_vec();
        }
    }

    fn finish(&mut self, rng: &mut dyn RngCore) -> (Phase1Slot, Option<AbortReason>) {
        // Contribution of sender j = framed r1 ‖ r2 as this slot saw
        // them (empty where nothing valid ever arrived).
        let mut contributions = vec![Vec::new(); self.m];
        for (j, slot_contrib) in contributions.iter_mut().enumerate() {
            if let (Some(Some(r1)), Some(Some(r2))) = (self.r1_view.get(j), self.r2_view.get(j)) {
                let mut w = crate::wire::Writer::new();
                w.put_bytes(r1);
                w.put_bytes(r2);
                *slot_contrib = w.into_bytes();
            }
        }
        if self.abort.is_none() {
            let msgs: Vec<bd::Round2> = decode_elem_round(self.group, &self.r2_view)
                .into_iter()
                .map(|(sender, x)| bd::Round2 { sender, x })
                .collect();
            if msgs.len() == self.m {
                if let Some(session) = self
                    .party
                    .as_ref()
                    .and_then(|party| party.finish(&msgs).ok())
                {
                    return (
                        Phase1Slot {
                            sid: session.sid.to_vec(),
                            k_star: session.key,
                            contributions,
                        },
                        None,
                    );
                }
            }
            self.abort = Some(AbortReason::KeyAgreement);
        }
        (decoy_phase1(contributions, rng), self.abort)
    }
}

// ---------------------------------------------------------------------------
// GDH.2
// ---------------------------------------------------------------------------

/// One GDH.2 party: an `m`-round chain in which round `t` belongs to
/// slot `t`. To keep the wire shape independent of who is doing what,
/// **every** inactive slot transmits cover traffic of exactly the
/// active message's length each round (a standard cover-traffic
/// discipline on anonymous broadcast media). A slot only observes its
/// own link of the chain: when an upstream hop broke, it learns so by
/// failing to decode its predecessor's (chaff) message, which costs
/// retransmission budget but keeps every slot's knowledge strictly
/// local.
pub(crate) struct GdhSlot {
    group: &'static SchnorrGroup,
    m: usize,
    index: usize,
    party: gdh::Party<'static>,
    /// The upflow this slot must extend when its round comes.
    pending: Option<gdh::Upflow>,
    /// This slot's own link is still intact.
    ok: bool,
    contributions: Vec<Vec<u8>>,
    final_broadcast: Option<gdh::Broadcast>,
    last_reason: Option<AbortReason>,
}

impl GdhSlot {
    pub(crate) fn new(
        group: &'static SchnorrGroup,
        m: usize,
        index: usize,
        rng: &mut dyn RngCore,
    ) -> Result<GdhSlot, CoreError> {
        let party = gdh::Party::new(group, m, index, rng).map_err(CoreError::Dgka)?;
        Ok(GdhSlot {
            group,
            m,
            index,
            party,
            pending: None,
            ok: true,
            contributions: vec![Vec::new(); m],
            final_broadcast: None,
            last_reason: None,
        })
    }

    /// The active message's wire length is protocol-determined: an
    /// upflow after active slot `t` carries `t + 2` group elements plus
    /// two counters; the final broadcast carries `m` elements plus one.
    fn expected_len(&self, t: usize) -> usize {
        let pw = codec::p_width(self.group);
        if t + 1 < self.m {
            8 + (t + 2) * pw
        } else {
            4 + self.m * pw
        }
    }
}

impl DgkaSlot for GdhSlot {
    fn rounds(&self) -> usize {
        self.m
    }

    fn round_label(&self, t: usize) -> String {
        format!("dgka-gdh-{t}")
    }

    fn emit(&mut self, t: usize, rng: &mut dyn RngCore) -> Vec<u8> {
        let len = self.expected_len(t);
        if self.index != t {
            return chaff(len, rng);
        }
        if t == 0 {
            return match self.party.initiate() {
                Ok(up) => {
                    let payload = encode_upflow(self.group, &up);
                    self.pending = Some(up);
                    payload
                }
                Err(_) => {
                    self.ok = false;
                    chaff(len, rng)
                }
            };
        }
        let Some(prev) = self.pending.take().filter(|_| self.ok) else {
            self.ok = false;
            return chaff(len, rng);
        };
        match self.party.advance(&prev) {
            Ok(gdh::Step::Upflow(up)) => {
                let payload = encode_upflow(self.group, &up);
                self.pending = Some(up);
                payload
            }
            Ok(gdh::Step::Broadcast(b)) => encode_gdh_broadcast(self.group, &b),
            Err(_) => {
                self.ok = false;
                chaff(len, rng)
            }
        }
    }

    fn validate(&self, t: usize, from: usize, payload: &[u8]) -> bool {
        // Only slot t's message is protocol-critical in round t: the
        // successor must decode the upflow, everyone must decode the
        // final broadcast. Cover traffic from the other slots is valid
        // as-is.
        if from != t {
            return true;
        }
        if t + 1 < self.m {
            self.index != t + 1 || decode_upflow(self.group, payload).is_ok()
        } else {
            decode_gdh_broadcast(self.group, payload).is_ok()
        }
    }

    fn absorb(
        &mut self,
        t: usize,
        view: &[Option<Vec<u8>>],
        incomplete: Option<AbortReason>,
        _rng: &mut dyn RngCore,
    ) {
        if let Some(reason) = incomplete {
            self.last_reason = Some(reason);
        }
        // Record slot t's real message as that sender's contribution
        // (from this slot's own, possibly tampered, view).
        let seen = view.get(t).cloned().flatten();
        if let Some(p) = &seen {
            if let Some(c) = self.contributions.get_mut(t) {
                *c = p.clone();
            }
        }
        if t + 1 < self.m {
            // The successor decodes the upflow from ITS view so
            // man-in-the-middle tampering on that link is honored.
            if self.index == t + 1 {
                match seen.as_deref().map(|p| decode_upflow(self.group, p)) {
                    Some(Ok(up)) => self.pending = Some(up),
                    _ => self.ok = false,
                }
            }
        } else {
            // Final round: decode the broadcast from this slot's own
            // view (slots whose copy never arrived abort in `finish`).
            if let Some(Ok(b)) = seen.as_deref().map(|p| decode_gdh_broadcast(self.group, p)) {
                self.final_broadcast = Some(b);
            }
        }
    }

    fn finish(&mut self, rng: &mut dyn RngCore) -> (Phase1Slot, Option<AbortReason>) {
        let contributions = std::mem::take(&mut self.contributions);
        if let Some(broadcast) = self.final_broadcast.take() {
            if let Ok(session) = self.party.finish(&broadcast) {
                return (
                    Phase1Slot {
                        sid: session.sid.to_vec(),
                        k_star: session.key,
                        contributions,
                    },
                    None,
                );
            }
        }
        let reason = self.last_reason.unwrap_or(AbortReason::KeyAgreement);
        (decoy_phase1(contributions, rng), Some(reason))
    }
}

fn encode_upflow(group: &SchnorrGroup, up: &gdh::Upflow) -> Vec<u8> {
    let pw = codec::p_width(group);
    let mut w = crate::wire::Writer::new();
    w.put_u32(up.contributors as u32);
    w.put_u32(up.partials.len() as u32);
    for p in &up.partials {
        w.put_ubig_fixed(p, pw);
    }
    w.put_ubig_fixed(&up.cumulative, pw);
    w.into_bytes()
}

fn decode_upflow(group: &SchnorrGroup, bytes: &[u8]) -> Result<gdh::Upflow, CoreError> {
    let pw = codec::p_width(group);
    let mut r = crate::wire::Reader::new(bytes);
    let contributors = r.take_u32()? as usize;
    let count = r.take_u32()? as usize;
    if count > 4096 {
        return Err(CoreError::Wire(crate::wire::WireError::BadLength));
    }
    let mut partials = Vec::with_capacity(count);
    for _ in 0..count {
        partials.push(r.take_ubig_fixed(pw)?);
    }
    let cumulative = r.take_ubig_fixed(pw)?;
    r.finish()?;
    Ok(gdh::Upflow {
        contributors,
        partials,
        cumulative,
    })
}

fn encode_gdh_broadcast(group: &SchnorrGroup, b: &gdh::Broadcast) -> Vec<u8> {
    let pw = codec::p_width(group);
    let mut w = crate::wire::Writer::new();
    w.put_u32(b.values.len() as u32);
    for v in &b.values {
        w.put_ubig_fixed(v, pw);
    }
    w.into_bytes()
}

fn decode_gdh_broadcast(group: &SchnorrGroup, bytes: &[u8]) -> Result<gdh::Broadcast, CoreError> {
    let pw = codec::p_width(group);
    let mut r = crate::wire::Reader::new(bytes);
    let count = r.take_u32()? as usize;
    if count > 4096 {
        return Err(CoreError::Wire(crate::wire::WireError::BadLength));
    }
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(r.take_ubig_fixed(pw)?);
    }
    r.finish()?;
    Ok(gdh::Broadcast { values })
}

// ---------------------------------------------------------------------------
// Katz–Yung authenticated Burmester–Desmedt
// ---------------------------------------------------------------------------

/// One party of the Katz–Yung-compiled Burmester–Desmedt protocol
/// ([`shs_dgka::ake`]): an ephemeral-roster broadcast, then the three
/// signed rounds of the compiler (nonces, BD round 1, BD round 2).
///
/// Round 0 distributes fresh ephemeral verification keys and is
/// inherently unauthenticated — exactly the trust gap the paper's
/// Phase-II CGKD-keyed MACs close (DESIGN.md §10 discusses why this is
/// sound inside GCD). From round 1 on, every message is signed over the
/// session context, so Phase-I man-in-the-middle substitution is
/// rejected immediately instead of surfacing at Phase II.
pub(crate) struct AkeSlot {
    group: &'static SchnorrGroup,
    m: usize,
    index: usize,
    sk: Option<sig::SigningKey>,
    vk: Option<sig::VerifyKey>,
    party: Option<ake::Party<'static>>,
    /// Own signed message queued for the next round.
    queued: Option<ake::SignedMsg>,
    /// Raw wire payloads per round per sender (contribution framing).
    raw_views: Vec<Vec<Option<Vec<u8>>>>,
    /// Decoded round-2 messages awaiting `finish`.
    r2_msgs: Option<Vec<ake::SignedMsg>>,
    abort: Option<AbortReason>,
}

impl AkeSlot {
    pub(crate) fn new(group: &'static SchnorrGroup, m: usize, index: usize) -> AkeSlot {
        AkeSlot {
            group,
            m,
            index,
            sk: None,
            vk: None,
            party: None,
            queued: None,
            raw_views: vec![Vec::new(); 4],
            r2_msgs: None,
            abort: None,
        }
    }

    /// Wire length of round `t` (fixed per round; the signed frames pad
    /// their bodies to full width so cover traffic is exact).
    fn frame_len(&self, t: usize) -> usize {
        let pw = codec::p_width(self.group);
        let qw = codec::q_width(self.group);
        match t {
            0 => elem_len(self.group),
            1 => 4 + 1 + 32 + pw + qw,
            _ => 4 + 1 + pw + pw + qw,
        }
    }

    fn decode_signed_round(&self, t: usize) -> Option<Vec<ake::SignedMsg>> {
        let view = self.raw_views.get(t)?;
        let mut msgs = Vec::with_capacity(self.m);
        for (j, p) in view.iter().enumerate() {
            msgs.push(decode_signed(self.group, (t - 1) as u8, j, p.as_deref()?).ok()?);
        }
        Some(msgs)
    }
}

impl DgkaSlot for AkeSlot {
    fn rounds(&self) -> usize {
        4
    }

    fn round_label(&self, t: usize) -> String {
        match t {
            0 => "dgka-ake-roster",
            1 => "dgka-ake-nonce",
            2 => "dgka-ake-r1",
            _ => "dgka-ake-r2",
        }
        .to_string()
    }

    fn emit(&mut self, t: usize, rng: &mut dyn RngCore) -> Vec<u8> {
        if t == 0 {
            let (sk, vk) = sig::keygen(self.group, rng);
            let payload = encode_elem(self.group, self.index, &vk.y);
            self.sk = Some(sk);
            self.vk = Some(vk);
            return payload;
        }
        match self.queued.take() {
            Some(msg) => encode_signed(self.group, &msg),
            None => chaff(self.frame_len(t), rng),
        }
    }

    fn validate(&self, t: usize, from: usize, payload: &[u8]) -> bool {
        if t == 0 {
            return decode_elem(self.group, from, payload).is_ok();
        }
        let Ok(msg) = decode_signed(self.group, (t - 1) as u8, from, payload) else {
            return false;
        };
        // An aborted receiver judges nothing; and pre-nonce rounds
        // cannot be fully checked yet (`verify_msg` returns `None`) —
        // both count as received so retransmission budget is saved for
        // decidable failures.
        match &self.party {
            Some(party) => party.verify_msg(&msg).unwrap_or(true),
            None => true,
        }
    }

    fn absorb(
        &mut self,
        t: usize,
        view: &[Option<Vec<u8>>],
        incomplete: Option<AbortReason>,
        rng: &mut dyn RngCore,
    ) {
        if let Some(slot_view) = self.raw_views.get_mut(t) {
            *slot_view = view.to_vec();
        }
        if let Some(reason) = incomplete {
            self.abort.get_or_insert(reason);
            return;
        }
        if self.abort.is_some() {
            return;
        }
        match t {
            0 => {
                // Build the ephemeral roster and start the signed
                // protocol (emits our nonce message next round).
                let mut roster = Vec::with_capacity(self.m);
                for (j, p) in view.iter().enumerate() {
                    match p.as_deref().map(|p| decode_elem(self.group, j, p)) {
                        Some(Ok((_, y))) => roster.push(sig::VerifyKey { y }),
                        _ => {
                            self.abort = Some(AbortReason::KeyAgreement);
                            return;
                        }
                    }
                }
                let Some(sk) = self.sk.take() else {
                    self.abort = Some(AbortReason::KeyAgreement);
                    return;
                };
                match ake::Party::start(self.group, self.index, sk, roster, rng) {
                    Ok((party, msg)) => {
                        self.party = Some(party);
                        self.queued = Some(msg);
                    }
                    Err(_) => self.abort = Some(AbortReason::KeyAgreement),
                }
            }
            1 | 2 => {
                let (Some(msgs), Some(party)) = (self.decode_signed_round(t), &mut self.party)
                else {
                    self.abort = Some(AbortReason::KeyAgreement);
                    return;
                };
                let next = if t == 1 {
                    party.on_nonces(&msgs, rng)
                } else {
                    party.on_round1(&msgs, rng)
                };
                match next {
                    Ok(msg) => self.queued = Some(msg),
                    Err(_) => self.abort = Some(AbortReason::KeyAgreement),
                }
            }
            _ => match self.decode_signed_round(t) {
                Some(msgs) => self.r2_msgs = Some(msgs),
                None => self.abort = Some(AbortReason::KeyAgreement),
            },
        }
    }

    fn finish(&mut self, rng: &mut dyn RngCore) -> (Phase1Slot, Option<AbortReason>) {
        // Contribution of sender j = its four framed protocol messages
        // as this slot saw them (complete quads only).
        let mut contributions = vec![Vec::new(); self.m];
        for (j, slot_contrib) in contributions.iter_mut().enumerate() {
            let quad: Option<Vec<&Vec<u8>>> = self
                .raw_views
                .iter()
                .map(|round| round.get(j).and_then(Option::as_ref))
                .collect();
            if let Some(parts) = quad {
                let mut w = crate::wire::Writer::new();
                for part in parts {
                    w.put_bytes(part);
                }
                *slot_contrib = w.into_bytes();
            }
        }
        if self.abort.is_none() {
            if let (Some(party), Some(msgs)) = (&self.party, &self.r2_msgs) {
                if let Ok(session) = party.finish(msgs) {
                    return (
                        Phase1Slot {
                            sid: session.sid.to_vec(),
                            k_star: session.key,
                            contributions,
                        },
                        None,
                    );
                }
            }
            self.abort = Some(AbortReason::KeyAgreement);
        }
        (decoy_phase1(contributions, rng), self.abort)
    }
}

/// Encodes a signed compiler message with its body padded to full
/// width: nonces are exactly 32 bytes; BD bodies pad to the modulus
/// width, so every slot's round-`t` frame has identical length.
fn encode_signed(group: &SchnorrGroup, msg: &ake::SignedMsg) -> Vec<u8> {
    let pw = codec::p_width(group);
    let qw = codec::q_width(group);
    let mut w = crate::wire::Writer::new();
    w.put_u32(msg.sender as u32);
    w.put_u8(msg.round);
    if msg.round == 0 {
        w.put_raw(&msg.body);
    } else {
        w.put_ubig_fixed(&Ubig::from_bytes_be(&msg.body), pw);
    }
    w.put_ubig_fixed(&msg.sig.big_r, pw);
    w.put_ubig_fixed(&msg.sig.s, qw);
    w.into_bytes()
}

/// Decodes a signed compiler message, re-minimalizing padded BD bodies
/// (the signature binds the minimal big-endian encoding).
fn decode_signed(
    group: &SchnorrGroup,
    round: u8,
    from: usize,
    bytes: &[u8],
) -> Result<ake::SignedMsg, CoreError> {
    let pw = codec::p_width(group);
    let qw = codec::q_width(group);
    let mut r = crate::wire::Reader::new(bytes);
    let sender = r.take_u32()? as usize;
    let got_round = r.take_u8()?;
    let body = if round == 0 {
        r.take_raw(32)?.to_vec()
    } else {
        r.take_ubig_fixed(pw)?.to_bytes_be()
    };
    let big_r = r.take_ubig_fixed(pw)?;
    let s = r.take_ubig_fixed(qw)?;
    r.finish()?;
    if sender != from || got_round != round {
        return Err(CoreError::BadSession);
    }
    Ok(ake::SignedMsg {
        sender,
        round,
        body,
        sig: sig::Signature { big_r, s },
    })
}
