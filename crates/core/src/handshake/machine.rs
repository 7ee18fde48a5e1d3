//! The sans-IO per-slot state machine every handshake driver steps.
//!
//! A [`PartyMachine`] is one slot of the GCD handshake with the network
//! taken out. It owns the phase sequence exactly once: the DGKA
//! emit/validate/absorb/finish cycle, the blinding `k' = k* ⊕ k`, the
//! Phase-II tag and `Δ`, the Phase-III real-or-decoy frame, its
//! verification, and the acceptance rule. It also owns the one attempt
//! rule every driver shares ([`PartyMachine::settle`]).
//!
//! The machine never sends or waits. A driver loops on
//! [`PartyMachine::step`]; when it reports [`Poll::Exchange`] a broadcast
//! round is open, and the driver
//!
//! 1. broadcasts [`PartyMachine::payload`] under [`PartyMachine::label`],
//! 2. hands every delivery to [`PartyMachine::receive`] (the first valid
//!    copy per sender wins), and
//! 3. calls [`PartyMachine::settle`] once the view is complete or its
//!    collect window closed. `settle` says whether to retransmit the
//!    same payload or move on.
//!
//! Three drivers step it: the lockstep
//! [`super::run_handshake_with_net`] (all slots over one
//! [`shs_net::Medium`]), [`super::party::run_party`] (one slot over a
//! [`shs_net::PartyLink`]), and `shs-sim`'s per-party session (all slots
//! on one thread under virtual time).
//!
//! # Randomness order
//!
//! Each `step` runs at most one stage, and every slot passes through the
//! same stages whatever its role or fate: an aborted slot still emits
//! chaff and publishes a decoy, an outsider still blinds. A driver that
//! steps `m` machines round-robin therefore draws from a shared DRBG
//! stage by stage across slots, which is what keeps lockstep
//! transcripts reproducible.

use crate::config::{HandshakeOptions, SessionBudget, TracePolicy};
use crate::handshake::decoy::phase3_decoy;
use crate::handshake::{AbortReason, Actor, Outcome, SessionStats, SlotCosts, SlotParams};
use crate::member::Member;
use crate::substrate::dgka::DgkaSlot;
use crate::transcript::TranscriptEntry;
use crate::{codec, CoreError, PartyOutcome};
use rand::RngCore;
use shs_bigint::{counters, Ubig};
use shs_crypto::{aead, hmac, Key};
use shs_groups::cs;
use shs_groups::schnorr::SchnorrGroup;

/// What a driver must do next with a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// A local stage ran; step again.
    Continue,
    /// A broadcast round is open: send, deliver, then settle.
    Exchange,
    /// The handshake is over; take the outcome.
    Done,
}

/// Where the machine is in the phase sequence. An exchange sits between
/// the stage that opens a round and the stage named here, which consumes
/// the round's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Phase I, round `t`: emit this slot's DGKA payload.
    Emit(usize),
    /// Phase I, round `t`: absorb the round's view.
    Absorb(usize),
    /// Phase I output (real or decoy).
    Finish,
    /// `k' = k* ⊕ k`.
    Blind,
    /// Phase II: publish the MAC tag.
    Tag,
    /// Phase II: compute `Δ` from the received tags.
    Delta,
    /// Phase III: publish the real or decoy `(θ, δ)` frame.
    Publish,
    /// Phase III: verify the co-members' frames.
    Verify,
    Done,
}

/// How the open round judges a delivery.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// The DGKA slot's own receiver-side test for round `t`.
    Dgka(usize),
    /// A tag of the wrong size was tampered in transit and is worth a
    /// retransmission; a right-sized tag that fails to verify is
    /// indistinguishable from a non-member's and must not be retried.
    Tag(usize),
    /// An undecodable `(θ, δ)` frame was tampered in transit. A decodable
    /// frame that fails to decrypt or verify is an ordinary non-member
    /// signal and is not retried.
    Frame,
}

/// The attempt rule: retransmit while the view is incomplete, up to
/// [`SessionBudget::retries_per_round`] times per round and
/// [`SessionBudget::max_exchanges`] exchanges per session.
#[derive(Debug, Clone, Copy, Default)]
struct Attempts {
    budget: SessionBudget,
    attempt: u32,
    exchanges: u32,
    retries: u32,
    exhausted: bool,
}

impl Attempts {
    /// Accounts one finished exchange; `true` means retransmit.
    fn settle(&mut self, complete: bool) -> bool {
        self.exchanges += 1;
        if self.attempt > 0 {
            self.retries += 1;
        }
        if complete || self.attempt >= self.budget.retries_per_round {
            self.attempt = 0;
            return false;
        }
        if self.exchanges >= self.budget.max_exchanges {
            self.exhausted = true;
            self.attempt = 0;
            return false;
        }
        self.attempt += 1;
        true
    }

    /// The abort reason matching how an incomplete round ended.
    fn abort_reason(&self) -> AbortReason {
        if self.exhausted {
            AbortReason::BudgetExhausted
        } else {
            AbortReason::KeyAgreement
        }
    }
}

/// Phase-III verification result of one slot: `(verified, duplicates)`
/// plus the modular exponentiations it cost.
pub(crate) type Verified = ((Vec<usize>, Vec<usize>), u64);

/// One slot of a handshake session as a sans-IO state machine (see the
/// module docs for the driving protocol).
pub struct PartyMachine<'a> {
    actor: &'a Actor<'a>,
    slot: usize,
    m: usize,
    opts: HandshakeOptions,
    group: &'static SchnorrGroup,
    mimic: SlotParams,
    dgka: Box<dyn DgkaSlot>,
    stage: Stage,
    attempts: Attempts,
    costs: SlotCosts,
    // The current (or last) broadcast round.
    open: bool,
    label: String,
    payload: Vec<u8>,
    check: Check,
    view: Vec<Option<Vec<u8>>>,
    // Session state threaded through the phases.
    abort: Option<AbortReason>,
    sid: Vec<u8>,
    /// `k' = k* ⊕ k` (holds `k*` between the Finish and Blind stages).
    k_prime: Key,
    contributions: Vec<Vec<u8>>,
    /// Phase-II payloads as received, per sender.
    seen_tags: Vec<Vec<u8>>,
    delta_set: Vec<usize>,
    /// Own Phase-III signature's T6 (scheme 2).
    own_t6: Option<Ubig>,
    verified: Vec<usize>,
    duplicates: Vec<usize>,
}

impl<'a> PartyMachine<'a> {
    /// A machine for `actor` in slot `slot` of an `slots`-party session.
    /// An outsider mimics the default test configuration; use a lockstep
    /// driver to have it mimic the session's members instead.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadSession`] unless `slot < slots` and `slots ≥ 2`;
    /// [`CoreError::Dgka`] when the key agreement rejects the session.
    pub fn new(
        actor: &'a Actor<'a>,
        slot: usize,
        slots: usize,
        opts: &HandshakeOptions,
        rng: &mut dyn RngCore,
    ) -> Result<PartyMachine<'a>, CoreError> {
        let roster = std::slice::from_ref(actor);
        PartyMachine::in_session(roster, actor, slot, slots, opts, rng)
    }

    /// A machine whose group and decoy parameters follow `roster`'s first
    /// member (the lockstep driver's view of the session).
    pub(crate) fn in_session(
        roster: &[Actor<'_>],
        actor: &'a Actor<'a>,
        slot: usize,
        slots: usize,
        opts: &HandshakeOptions,
        rng: &mut dyn RngCore,
    ) -> Result<PartyMachine<'a>, CoreError> {
        if slots < 2 || slot >= slots {
            return Err(CoreError::BadSession);
        }
        let group = super::session_group(roster);
        let dgka = crate::factory::dgka_slot(opts.dgka, group, slots, slot, rng)?;
        Ok(PartyMachine {
            actor,
            slot,
            m: slots,
            opts: *opts,
            group,
            mimic: super::mimic_params(roster),
            dgka,
            stage: Stage::Emit(0),
            attempts: Attempts {
                budget: opts.budget,
                ..Attempts::default()
            },
            costs: SlotCosts::default(),
            open: false,
            label: String::new(),
            payload: Vec::new(),
            check: Check::Frame,
            view: Vec::new(),
            abort: None,
            sid: Vec::new(),
            k_prime: Key::from_bytes([0; Key::LEN]),
            contributions: Vec::new(),
            seen_tags: Vec::new(),
            delta_set: Vec::new(),
            own_t6: None,
            verified: Vec::new(),
            duplicates: Vec::new(),
        })
    }

    /// Runs the next stage. Returns [`Poll::Exchange`] (without doing
    /// anything) while a round is open.
    ///
    /// # Errors
    ///
    /// Codec errors building the Phase-III frame are propagated.
    pub fn step(&mut self, rng: &mut dyn RngCore) -> Result<Poll, CoreError> {
        if self.open {
            return Ok(Poll::Exchange);
        }
        match self.stage {
            Stage::Emit(t) => {
                let dgka = &mut self.dgka;
                let payload = meter(&mut self.costs, || dgka.emit(t, rng));
                let label = self.dgka.round_label(t);
                self.open_round(label, payload, Check::Dgka(t), Stage::Absorb(t));
            }
            Stage::Absorb(t) => {
                let incomplete = (!self.view_complete()).then(|| self.attempts.abort_reason());
                let (dgka, view) = (&mut self.dgka, &self.view);
                meter(&mut self.costs, || dgka.absorb(t, view, incomplete, rng));
                self.stage = if t + 1 < self.dgka.rounds() {
                    Stage::Emit(t + 1)
                } else {
                    Stage::Finish
                };
            }
            Stage::Finish => {
                let dgka = &mut self.dgka;
                let (p1, abort) = meter(&mut self.costs, || dgka.finish(rng));
                self.abort = abort;
                self.sid = p1.sid;
                self.k_prime = p1.k_star;
                self.contributions = p1.contributions;
                self.stage = Stage::Blind;
            }
            Stage::Blind => {
                // A slot that aborted in Phase I holds a random `k*`, so
                // its `k'` is uniform — exactly an outsider's
                // distribution (outsiders hold a random "group key" for
                // the same reason).
                let k_i = match self.actor {
                    Actor::Member(member) => member.group_key().clone(),
                    Actor::Outsider => Key::random(rng),
                };
                self.k_prime = self.k_prime.xor(&k_i);
                self.stage = Stage::Tag;
            }
            Stage::Tag => {
                let own = self
                    .contributions
                    .get(self.slot)
                    .map_or(&[][..], Vec::as_slice);
                let tag = phase2_tag(&self.k_prime, &self.sid, own, self.slot);
                let check = Check::Tag(tag.len());
                self.open_round("phase2-mac".into(), tag, check, Stage::Delta);
            }
            Stage::Delta => {
                self.seen_tags = self
                    .view
                    .iter()
                    .map(|v| v.clone().unwrap_or_default())
                    .collect();
                self.delta_set = (0..self.m)
                    .filter(|&j| j == self.slot || self.tag_verifies(j))
                    .collect();
                self.stage = match self.opts.policy {
                    TracePolicy::Full => Stage::Publish,
                    TracePolicy::PreliminaryOnly => Stage::Done,
                };
            }
            Stage::Publish => {
                let frame = self.publish(rng)?;
                self.open_round("phase3-full".into(), frame, Check::Frame, Stage::Verify);
            }
            Stage::Verify => {
                let verified = self.verify();
                self.record_verify(verified);
            }
            Stage::Done => return Ok(Poll::Done),
        }
        Ok(if self.open {
            Poll::Exchange
        } else {
            Poll::Continue
        })
    }

    fn open_round(&mut self, label: String, payload: Vec<u8>, check: Check, next: Stage) {
        self.costs.messages_sent += 1;
        self.costs.bytes_sent += payload.len() as u64;
        self.label = label;
        self.payload = payload;
        self.check = check;
        self.view = vec![None; self.m];
        self.stage = next;
        self.open = true;
    }

    /// Does slot `j`'s Phase-II tag verify under this slot's `k'` (same
    /// group, via the same CGKD epoch key)?
    fn tag_verifies(&self, j: usize) -> bool {
        let contribution = self.contributions.get(j).map_or(&[][..], Vec::as_slice);
        let expected = phase2_tag(&self.k_prime, &self.sid, contribution, j);
        let seen = self.seen_tags.get(j).map_or(&[][..], Vec::as_slice);
        shs_crypto::ct::eq(&expected, seen)
    }

    /// The open round's wire label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The open round's payload (unchanged across retransmissions, which
    /// keeps every slot's wire shape uniform).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Would the open round count `payload` from `from` as received?
    pub(crate) fn validate(&self, from: usize, payload: &[u8]) -> bool {
        from < self.m
            && match self.check {
                Check::Dgka(t) => self.dgka.validate(t, from, payload),
                Check::Tag(len) => payload.len() == len,
                Check::Frame => decode_p3(payload).is_ok(),
            }
    }

    /// Offers one delivery to the open round: the first valid copy per
    /// sender is kept, everything else is discarded.
    pub fn receive(&mut self, from: usize, payload: &[u8]) {
        let missing = self.view.get(from).is_some_and(Option::is_none);
        if self.open && missing && self.validate(from, payload) {
            self.view[from] = Some(payload.to_vec());
        }
    }

    /// Has every sender's payload validly arrived?
    pub fn view_complete(&self) -> bool {
        self.view.iter().all(Option::is_some)
    }

    /// Closes one exchange attempt of the open round. `complete` is the
    /// driver's completion test — this machine's own view for a
    /// per-party driver, every slot's view for the lockstep driver (whose
    /// slots all retransmit together). Returns `true` when the driver
    /// must retransmit the same payload; otherwise the round is closed.
    pub fn settle(&mut self, complete: bool) -> bool {
        let retry = self.attempts.settle(complete);
        self.open = retry;
        retry
    }

    /// This slot's Phase-III frame as a transcript entry (after the
    /// frame was published).
    pub(crate) fn transcript_entry(&self) -> Result<TranscriptEntry, CoreError> {
        let (theta, delta) = decode_p3(&self.payload)?;
        Ok(TranscriptEntry { theta, delta })
    }

    /// The session id this slot derived.
    pub(crate) fn sid(&self) -> &[u8] {
        &self.sid
    }

    /// Is the machine waiting to verify Phase-III frames?
    pub(crate) fn verify_pending(&self) -> bool {
        !self.open && self.stage == Stage::Verify
    }

    /// Phase-III verification, pure and `&self` so a lockstep driver can
    /// fan slots out onto worker threads. `None` for slots that verify
    /// nothing (aborted slots are decoy senders, outsiders hold no
    /// credential).
    pub(crate) fn verify(&self) -> Option<Verified> {
        let Actor::Member(member) = self.actor else {
            return None;
        };
        if self.abort.is_some() {
            return None;
        }
        // The op counters are thread-local: measure where the work runs
        // and carry the count home in the result.
        let (counts, sets) = counters::measure(|| self.verify_frames(member));
        Some((sets, counts.modexp))
    }

    pub(crate) fn record_verify(&mut self, verified: Option<Verified>) {
        if let Some(((v, d), modexp)) = verified {
            self.verified = v;
            self.duplicates = d;
            self.costs.modexp += modexp;
        }
        self.stage = Stage::Done;
    }

    /// Folds the finished phases into this slot's result — the acceptance
    /// logic of `Handshake(∆)` plus the partial-success extension.
    /// `crashed` marks a slot the driver knows was crash-stopped: it
    /// never finished the session, whatever it computed locally. The
    /// stats carry the attempt rule's accounting; transport counters are
    /// the driver's to fill in.
    pub fn into_outcome(self, crashed: bool) -> PartyOutcome {
        let abort = if crashed {
            Some(AbortReason::Crashed)
        } else {
            self.abort
        };
        let is_member = abort.is_none() && matches!(self.actor, Actor::Member(_));
        let mut verified = self.verified;
        if is_member {
            verified.push(self.slot); // own signature trivially verified
        }
        verified.sort_unstable();
        let delta = &self.delta_set;
        let all_delta_verified = self.opts.policy == TracePolicy::PreliminaryOnly
            || delta.iter().all(|j| verified.contains(j));
        let clean = self.duplicates.is_empty();
        let ok = is_member && all_delta_verified && clean;
        let accepted = ok && delta.len() == self.m;
        let partial_ok = ok && self.opts.partial_success && delta.len() >= 2;
        let session_key =
            (accepted || partial_ok).then(|| derive_session_key(&self.k_prime, &self.sid, delta));
        PartyOutcome {
            outcome: Outcome {
                slot: self.slot,
                accepted,
                same_group_slots: self.delta_set,
                verified_slots: verified,
                duplicate_slots: self.duplicates,
                session_key,
                abort,
            },
            costs: self.costs,
            stats: SessionStats {
                exchanges: self.attempts.exchanges,
                retries: self.attempts.retries,
                budget_exhausted: self.attempts.exhausted,
                ..SessionStats::default()
            },
        }
    }

    /// Builds this slot's Phase-III frame: the real `(θ, δ)` when a
    /// member completed Phase I and found a big-enough `Δ`, otherwise a
    /// decoy drawn from the same ciphertext spaces (§7), so on the wire
    /// an aborted or outsider slot looks exactly like a member whose
    /// handshake merely failed.
    fn publish(&mut self, rng: &mut dyn RngCore) -> Result<Vec<u8>, CoreError> {
        let (m, n) = (self.m, self.delta_set.len());
        let big_enough = n == m || (self.opts.partial_success && n >= 2);
        let actor = self.actor;
        let (theta, delta_bytes) = match actor {
            Actor::Member(member) if self.abort.is_none() && big_enough => {
                let (group, sid) = (self.group, &self.sid);
                let k_prime = &self.k_prime;
                let basis = member.scheme().self_distinct().then(|| self.sd_basis());
                let ((theta, delta_bytes), t6) = meter(&mut self.costs, || {
                    let delta = cs::encrypt(group, &member.tracing_pk, k_prime.as_bytes(), rng);
                    let delta_bytes = codec::encode_delta(group, &delta);
                    let mut msg = delta_bytes.clone();
                    msg.extend_from_slice(sid);
                    let (sig_bytes, t6) = member.credential().sign(&msg, basis.as_deref(), rng);
                    let theta = aead::seal(k_prime, &sig_bytes, sid, rng);
                    ((theta, delta_bytes), t6)
                });
                self.own_t6 = t6;
                (theta, delta_bytes)
            }
            actor => {
                let (group, mimic) = (self.group, &self.mimic);
                meter(&mut self.costs, || phase3_decoy(actor, group, mimic, rng))
            }
        };
        let mut w = crate::wire::Writer::new();
        w.put_bytes(&theta);
        w.put_bytes(&delta_bytes);
        Ok(w.into_bytes())
    }

    /// Checks every co-member frame in this slot's view and flags
    /// duplicate `T6` values (self-distinction). Returns
    /// `(verified, duplicates)`.
    fn verify_frames(&self, member: &Member) -> (Vec<usize>, Vec<usize>) {
        let i = self.slot;
        let mut verified = Vec::new();
        let mut duplicates = Vec::new();
        let expected_t7 = member
            .scheme()
            .self_distinct()
            .then(|| member.credential().common_t7(&self.sd_basis()))
            .flatten();
        let mut t6_seen: Vec<(usize, Ubig)> = Vec::new();
        if let Some(t6) = &self.own_t6 {
            t6_seen.push((i, t6.clone()));
        }
        // Gather every decryptable peer frame first, then verify the
        // whole set in one batch call: the scheme combines the m−1
        // public-data verify equations into a single multi-exp pass
        // (outcome-identical to per-frame verification; frames that fail
        // to decode or decrypt never reach the batch, exactly as they
        // never reached `verify`).
        let mut pending: Vec<(usize, Vec<u8>, Vec<u8>)> = Vec::new();
        for (j, payload) in self.view.iter().enumerate() {
            if j == i || !self.delta_set.contains(&j) {
                continue;
            }
            let Some(payload) = payload else {
                continue;
            };
            let Ok((theta, delta_bytes)) = decode_p3(payload) else {
                continue;
            };
            let Ok(sig_bytes) = aead::open(&self.k_prime, &theta, &self.sid) else {
                continue;
            };
            let mut msg = delta_bytes;
            msg.extend_from_slice(&self.sid);
            pending.push((j, msg, sig_bytes));
        }
        let items: Vec<(&[u8], &[u8])> = pending
            .iter()
            .map(|(_, msg, sig)| (msg.as_slice(), sig.as_slice()))
            .collect();
        let outcomes = member
            .credential()
            .verify_batch(&items, expected_t7.as_ref(), &member.crl);
        for ((j, _, _), ok) in pending.iter().zip(outcomes) {
            if let Some(t6) = ok {
                verified.push(*j);
                if let Some(t6) = t6 {
                    t6_seen.push((*j, t6));
                }
            }
        }
        // Self-distinction: flag every slot whose T6 collides.
        for (a_idx, (slot_a, t6_a)) in t6_seen.iter().enumerate() {
            for (slot_b, t6_b) in t6_seen.iter().skip(a_idx + 1) {
                if t6_a == t6_b {
                    if !duplicates.contains(slot_a) {
                        duplicates.push(*slot_a);
                    }
                    if !duplicates.contains(slot_b) {
                        duplicates.push(*slot_b);
                    }
                }
            }
        }
        duplicates.sort_unstable();
        (verified, duplicates)
    }

    /// Self-distinction basis: the concatenation of everything sent in
    /// Phases I and II, as this slot saw it (§8.2: "the concatenation of
    /// all messages sent by the handshake participants").
    fn sd_basis(&self) -> Vec<u8> {
        let mut basis = b"gcd-sd-basis".to_vec();
        basis.extend_from_slice(&self.sid);
        for part in self.contributions.iter().chain(&self.seen_tags) {
            basis.extend_from_slice(&(part.len() as u64).to_be_bytes());
            basis.extend_from_slice(part);
        }
        basis
    }
}

/// Meters `f`'s modular-exponentiation count into `costs`.
fn meter<T>(costs: &mut SlotCosts, f: impl FnOnce() -> T) -> T {
    let (c, out) = counters::measure(f);
    costs.modexp += c.modexp;
    out
}

/// `MAC(k'_i, sid ‖ s_i ‖ i)` where `s_i` is the party's Phase-I
/// contribution.
fn phase2_tag(k_prime: &Key, sid: &[u8], contribution: &[u8], slot: usize) -> Vec<u8> {
    hmac::HmacSha256::new(k_prime.as_bytes())
        .chain(b"gcd-phase2")
        .chain(sid)
        .chain(&(contribution.len() as u64).to_be_bytes())
        .chain(contribution)
        .chain(&(slot as u64).to_be_bytes())
        .finalize()
        .to_vec()
}

fn decode_p3(bytes: &[u8]) -> Result<(Vec<u8>, Vec<u8>), CoreError> {
    let mut r = crate::wire::Reader::new(bytes);
    let theta = r.take_bytes()?;
    let delta = r.take_bytes()?;
    r.finish()?;
    Ok((theta, delta))
}

/// The established session key: derived from `k'`, the session id and
/// the accepted co-member set.
fn derive_session_key(k_prime: &Key, sid: &[u8], delta: &[usize]) -> Key {
    let mut ikm = k_prime.as_bytes().to_vec();
    ikm.extend_from_slice(sid);
    for &s in delta {
        ikm.extend_from_slice(&(s as u64).to_be_bytes());
    }
    Key::derive(&ikm, "gcd-session-key")
}
