//! The ACJT2000 group signature scheme (Ateniese–Camenisch–Joye–Tsudik),
//! the basis the paper cites for instantiation §8.1.
//!
//! Member key: `(A, e, x)` with `A^e = a0·a^x mod n`, `x ∈ Λ` known *only*
//! to the member, `e ∈ Γ` prime. Signature tags:
//! `T1 = A·y^w, T2 = g^w, T3 = g^e·h^w` plus a Fiat–Shamir proof of
//! knowledge of `(x, e, w, h'=e·w)`.
//!
//! Compared to [`crate::ky`], this scheme offers **full-anonymity**
//! (there is no GM-known per-member trapdoor at all, hence no user
//! tracing and no VLR revocation): the framework instantiated over it
//! achieves *full-unlinkability* (Theorem 1) but relies entirely on CGKD
//! revocation — the exact trade-off §3 of the paper discusses, and the
//! subject of the E7(b)/E9 experiments.

use crate::batch::{self, BatchOutcome};
use crate::params::GsigParams;
use crate::proofs::{self, Transcript};
use crate::tables::FixedBasePair;
use crate::GsigError;
use rand::RngCore;
use shs_bigint::{rng as brng, Int, Ubig};
use shs_groups::rsa::{RsaGroup, RsaParams, RsaSecret};

pub use crate::ky::MemberId;

/// Fixed-base tables for the four bases signing exponentiates with secret
/// exponents; built on first use, shared by clones of the key.
#[derive(Debug, Clone, Default)]
struct SignTables {
    a: FixedBasePair,
    g: FixedBasePair,
    h: FixedBasePair,
    y: FixedBasePair,
}

/// The ACJT group public key `(n, a, a0, g, h, y)`.
#[derive(Debug, Clone)]
pub struct GroupPublicKey {
    /// Interval parameters.
    pub params: GsigParams,
    rsa: RsaGroup,
    /// Base for the membership secret `x`.
    pub a: Ubig,
    /// Constant of the certificate equation.
    pub a0: Ubig,
    /// Blinding base.
    pub g: Ubig,
    /// Second blinding base.
    pub h: Ubig,
    /// Opening key `y = g^θ`.
    pub y: Ubig,
    tables: SignTables,
}

/// Serializable form of [`GroupPublicKey`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPublicKeyParams {
    /// Interval parameters.
    pub params: GsigParams,
    /// Modulus.
    pub rsa: RsaParams,
    /// See [`GroupPublicKey::a`].
    pub a: Ubig,
    /// See [`GroupPublicKey::a0`].
    pub a0: Ubig,
    /// See [`GroupPublicKey::g`].
    pub g: Ubig,
    /// See [`GroupPublicKey::h`].
    pub h: Ubig,
    /// See [`GroupPublicKey::y`].
    pub y: Ubig,
}

impl GroupPublicKey {
    /// Serializable parameters.
    pub fn to_params(&self) -> GroupPublicKeyParams {
        GroupPublicKeyParams {
            params: self.params,
            rsa: self.rsa.params(),
            a: self.a.clone(),
            a0: self.a0.clone(),
            g: self.g.clone(),
            h: self.h.clone(),
            y: self.y.clone(),
        }
    }

    /// Rebuilds from parameters.
    pub fn from_params(p: GroupPublicKeyParams) -> GroupPublicKey {
        GroupPublicKey {
            params: p.params,
            rsa: RsaGroup::from_params(p.rsa),
            a: p.a,
            a0: p.a0,
            g: p.g,
            h: p.h,
            y: p.y,
            tables: SignTables::default(),
        }
    }

    /// The RSA group.
    pub fn rsa(&self) -> &RsaGroup {
        &self.rsa
    }

    /// Width bound for the fixed-base tables: the widest secret exponent a
    /// signer ever raises a fixed base to is the `h'`-blind.
    fn table_bits(&self) -> u32 {
        self.params.blind_bits(self.params.h_bits())
    }

    /// `a^e` via the precomputed table (constant-trace).
    fn pow_a(&self, e: &Int) -> Ubig {
        self.tables
            .a
            .pow_signed(&self.rsa, &self.a, e, self.table_bits())
    }

    /// `g^e` via the precomputed table (constant-trace).
    fn pow_g(&self, e: &Int) -> Ubig {
        self.tables
            .g
            .pow_signed(&self.rsa, &self.g, e, self.table_bits())
    }

    /// `h^e` via the precomputed table (constant-trace).
    fn pow_h(&self, e: &Int) -> Ubig {
        self.tables
            .h
            .pow_signed(&self.rsa, &self.h, e, self.table_bits())
    }

    /// `y^e` via the precomputed table (constant-trace).
    fn pow_y(&self, e: &Int) -> Ubig {
        self.tables
            .y
            .pow_signed(&self.rsa, &self.y, e, self.table_bits())
    }

    /// Unsigned-exponent variants for the certificate-equation paths.
    fn pow_a_u(&self, e: &Ubig) -> Ubig {
        self.tables.a.pow(&self.rsa, &self.a, e, self.table_bits())
    }

    fn pow_g_u(&self, e: &Ubig) -> Ubig {
        self.tables.g.pow(&self.rsa, &self.g, e, self.table_bits())
    }

    fn pow_h_u(&self, e: &Ubig) -> Ubig {
        self.tables.h.pow(&self.rsa, &self.h, e, self.table_bits())
    }

    fn pow_y_u(&self, e: &Ubig) -> Ubig {
        self.tables.y.pow(&self.rsa, &self.y, e, self.table_bits())
    }

    fn transcript_for(&self, message: &[u8], t: &[&Ubig; 3], b: &[Ubig; 4]) -> Transcript {
        let mut tr = Transcript::new("shs-gsig-acjt");
        tr.append_ubig("n", self.rsa.n());
        tr.append_ubig("a", &self.a);
        tr.append_ubig("a0", &self.a0);
        tr.append_ubig("g", &self.g);
        tr.append_ubig("h", &self.h);
        tr.append_ubig("y", &self.y);
        tr.append("m", message);
        for (i, tag) in t.iter().enumerate() {
            tr.append_ubig(&format!("T{}", i + 1), tag);
        }
        for (i, bi) in b.iter().enumerate() {
            tr.append_ubig(&format!("B{}", i + 1), bi);
        }
        tr
    }
}

/// An ACJT signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// `A·y^w`.
    pub t1: Ubig,
    /// `g^w`.
    pub t2: Ubig,
    /// `g^e·h^w`.
    pub t3: Ubig,
    /// Fiat–Shamir commitments `B1..B4`, transmitted (and bound through
    /// the challenge hash) so the verifier can check the group equations
    /// directly — the form batch verification combines.
    pub b: [Ubig; 4],
    /// Fiat–Shamir challenge.
    pub c: Ubig,
    /// Response for `x`.
    pub s_x: Int,
    /// Response for `e`.
    pub s_e: Int,
    /// Response for `w`.
    pub s_w: Int,
    /// Response for `h' = e·w`.
    pub s_h: Int,
}

/// A member's signing key: `(A, e, x)` with `x` known only to the member.
#[derive(Clone)]
pub struct MemberKey {
    /// Pseudonymous identity.
    pub id: MemberId,
    a_cert: Ubig,
    e: Ubig,
    x: Ubig,
}

impl MemberKey {
    /// The certificate `A` (tests only).
    pub fn certificate(&self) -> &Ubig {
        &self.a_cert
    }
}

impl std::fmt::Debug for MemberKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "acjt::MemberKey {{ id: {}, secrets: **** }}", self.id)
    }
}

/// GM-side member record: note there is **no** tracing trapdoor — only the
/// certificate, preserving full-anonymity.
#[derive(Debug, Clone)]
pub struct MemberRecord {
    /// Member identity.
    pub id: MemberId,
    /// Certificate `A`.
    pub a_cert: Ubig,
    /// Certificate prime `e`.
    pub e: Ubig,
    /// Revocation flag (effective only via the registry / CGKD — ACJT has
    /// no VLR mechanism; see crate docs).
    pub revoked: bool,
}

/// The ACJT group manager.
pub struct GroupManager {
    pk: GroupPublicKey,
    rsa_secret: RsaSecret,
    theta: Ubig,
    members: Vec<MemberRecord>,
    next_id: u64,
}

impl std::fmt::Debug for GroupManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "acjt::GroupManager {{ members: {}, secrets: **** }}",
            self.members.len()
        )
    }
}

/// Member's first join message: commitment `C = a^x` plus PoK of `x ∈ Λ`.
#[derive(Debug, Clone)]
pub struct JoinRequest {
    /// `C = a^x`.
    pub commitment: Ubig,
    /// PoK challenge.
    pub pok_c: Ubig,
    /// PoK response.
    pub pok_s: Int,
}

/// Member's private join state.
pub struct JoinSecret {
    x: Ubig,
}

impl std::fmt::Debug for JoinSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "acjt::JoinSecret(****)")
    }
}

impl JoinSecret {
    /// Zeroizes the private exponent in place. Called automatically on
    /// drop.
    fn wipe_in_place(&mut self) {
        self.x.wipe();
    }
}

impl Drop for JoinSecret {
    fn drop(&mut self) {
        self.wipe_in_place();
    }
}

/// GM's join reply.
#[derive(Debug, Clone)]
pub struct JoinResponse {
    /// Assigned identity.
    pub id: MemberId,
    /// `A = (a0·C)^{1/e}`.
    pub a_cert: Ubig,
    /// Certificate prime.
    pub e: Ubig,
}

impl GroupManager {
    /// `Setup` with a fresh RSA modulus.
    pub fn setup(params: GsigParams, rng: &mut (impl RngCore + ?Sized)) -> GroupManager {
        let (rsa, rsa_secret) = RsaGroup::generate(params.modulus_bits, rng);
        Self::setup_with_rsa(params, rsa, rsa_secret, rng)
    }

    /// `Setup` reusing an existing RSA setting.
    pub fn setup_with_rsa(
        params: GsigParams,
        rsa: RsaGroup,
        rsa_secret: RsaSecret,
        rng: &mut (impl RngCore + ?Sized),
    ) -> GroupManager {
        let a = rsa_secret.qr_generator(&rsa, rng);
        let a0 = rsa_secret.qr_generator(&rsa, rng);
        let g = rsa_secret.qr_generator(&rsa, rng);
        let h = rsa_secret.qr_generator(&rsa, rng);
        let theta = brng::below(rng, &rsa.n().shr(2));
        let y = rsa.exp(&g, &theta);
        let pk = GroupPublicKey {
            params,
            rsa,
            a,
            a0,
            g,
            h,
            y,
            tables: SignTables::default(),
        };
        GroupManager {
            pk,
            rsa_secret,
            theta,
            members: Vec::new(),
            next_id: 0,
        }
    }

    /// The group public key.
    pub fn public_key(&self) -> &GroupPublicKey {
        &self.pk
    }

    /// The member registry.
    pub fn members(&self) -> &[MemberRecord] {
        &self.members
    }

    /// GM side of `Join`.
    ///
    /// # Errors
    ///
    /// [`GsigError::JoinRejected`] when the PoK fails.
    pub fn admit(
        &mut self,
        req: &JoinRequest,
        rng: &mut (impl RngCore + ?Sized),
    ) -> Result<JoinResponse, GsigError> {
        if !verify_join_pok(&self.pk, req) {
            return Err(GsigError::JoinRejected);
        }
        let e = self.pk.params.sample_gamma_prime(rng);
        let base = self.pk.rsa.mul(&self.pk.a0, &req.commitment);
        let a_cert = self
            .rsa_secret
            .root(&self.pk.rsa, &base, &e)
            .map_err(|_| GsigError::JoinRejected)?;
        let id = MemberId(self.next_id);
        self.next_id += 1;
        self.members.push(MemberRecord {
            id,
            a_cert: a_cert.clone(),
            e: e.clone(),
            revoked: false,
        });
        Ok(JoinResponse { id, a_cert, e })
    }

    /// Marks a member revoked in the registry. ACJT offers no VLR; this
    /// only affects the registry (and the framework's CGKD layer).
    ///
    /// # Errors
    ///
    /// [`GsigError::UnknownSigner`] for unknown ids.
    pub fn revoke(&mut self, id: MemberId) -> Result<(), GsigError> {
        let rec = self
            .members
            .iter_mut()
            .find(|m| m.id == id)
            .ok_or(GsigError::UnknownSigner)?;
        rec.revoked = true;
        Ok(())
    }

    /// `Open`: recovers `A = T1/T2^θ` and looks up the signer.
    ///
    /// # Errors
    ///
    /// [`GsigError::InvalidSignature`] for invalid signatures,
    /// [`GsigError::UnknownSigner`] when no member matches.
    pub fn open(&self, message: &[u8], sig: &Signature) -> Result<MemberId, GsigError> {
        verify(&self.pk, message, sig)?;
        let shield = self.pk.rsa.exp(&sig.t2, &self.theta);
        let a_cert = self
            .pk
            .rsa
            .div(&sig.t1, &shield)
            .map_err(|_| GsigError::InvalidSignature)?;
        self.members
            .iter()
            .find(|m| m.a_cert == a_cert)
            .map(|m| m.id)
            .ok_or(GsigError::UnknownSigner)
    }
}

/// Member side of `Join`, step 1.
pub fn start_join(
    pk: &GroupPublicKey,
    rng: &mut (impl RngCore + ?Sized),
) -> (JoinSecret, JoinRequest) {
    let params = &pk.params;
    let x = params.sample_lambda(rng);
    let commitment = pk.pow_a_u(&x);
    let rho = proofs::sample_blind(params.blind_bits(params.lambda2), rng);
    let big_b = pk.pow_a(&rho);
    let mut t = Transcript::new("shs-gsig-acjt-join");
    t.append_ubig("n", pk.rsa.n());
    t.append_ubig("a", &pk.a);
    t.append_ubig("C", &commitment);
    t.append_ubig("B", &big_b);
    let c = t.challenge(params.k);
    let s = proofs::response(&rho, &c, &x, &pow2(params.lambda1));
    (
        JoinSecret { x },
        JoinRequest {
            commitment,
            pok_c: c,
            pok_s: s,
        },
    )
}

fn verify_join_pok(pk: &GroupPublicKey, req: &JoinRequest) -> bool {
    let params = &pk.params;
    if !proofs::response_in_range(&req.pok_s, params.blind_bits(params.lambda2)) {
        return false;
    }
    let exp = proofs::shifted(&req.pok_s, &req.pok_c, params.lambda1);
    // Every operand is public join-request data: one vartime multi-exp.
    let big_b = pk.rsa.multi_exp_vartime(&[
        (&pk.a, &exp),
        (&req.commitment, &Int::from_ubig(req.pok_c.clone())),
    ]);
    let mut t = Transcript::new("shs-gsig-acjt-join");
    t.append_ubig("n", pk.rsa.n());
    t.append_ubig("a", &pk.a);
    t.append_ubig("C", &req.commitment);
    t.append_ubig("B", &big_b);
    t.challenge(params.k) == req.pok_c
}

/// Member side of `Join`, step 2.
///
/// # Errors
///
/// [`GsigError::JoinRejected`] when the certificate equation fails.
pub fn finish_join(
    pk: &GroupPublicKey,
    mut secret: JoinSecret,
    resp: &JoinResponse,
) -> Result<MemberKey, GsigError> {
    let params = &pk.params;
    if !params.in_gamma(&resp.e) {
        return Err(GsigError::JoinRejected);
    }
    let lhs = pk.rsa.exp(&resp.a_cert, &resp.e);
    let rhs = pk.rsa.mul(&pk.a0, &pk.pow_a_u(&secret.x));
    if lhs != rhs {
        return Err(GsigError::JoinRejected);
    }
    // `JoinSecret: Drop`, so `x` cannot be moved out; swap it for zero and
    // let the drop wipe the (now empty) remainder.
    let x = std::mem::replace(&mut secret.x, Ubig::zero());
    Ok(MemberKey {
        id: resp.id,
        a_cert: resp.a_cert.clone(),
        e: resp.e.clone(),
        x,
    })
}

/// `Sign`.
pub fn sign(
    pk: &GroupPublicKey,
    key: &MemberKey,
    message: &[u8],
    rng: &mut (impl RngCore + ?Sized),
) -> Signature {
    sign_inner(pk, key, message, None, rng)
}

/// Adversarial test hook: signs honestly but negates commitment
/// `B_{j+1}` (`B ← n − B`) before the challenge, then derives `c` and
/// the responses against the negated vector. The group equations of the
/// result hold only up to sign — the canonical order-2 probe for
/// single/batch verifier agreement. Both verifiers compare in `QR(n)`
/// and accept (benign signer-only malleability); before the squared
/// comparison, the batch RLC accepted this for half of all coefficient
/// draws while per-signature `verify` rejected it.
#[doc(hidden)]
pub fn sign_negated(
    pk: &GroupPublicKey,
    key: &MemberKey,
    message: &[u8],
    j: usize,
    rng: &mut (impl RngCore + ?Sized),
) -> Signature {
    sign_inner(pk, key, message, Some(j), rng)
}

fn sign_inner(
    pk: &GroupPublicKey,
    key: &MemberKey,
    message: &[u8],
    negate: Option<usize>,
    rng: &mut (impl RngCore + ?Sized),
) -> Signature {
    let params = &pk.params;
    let rsa = &pk.rsa;

    let w = brng::below(rng, &pow2(params.r_bits()));
    // Fixed public bases with secret exponents: precomputed constant-trace
    // tables. Per-signature bases (T1, T2) stay on the plain kernel.
    let t1 = rsa.mul(&key.a_cert, &pk.pow_y_u(&w));
    let t2 = pk.pow_g_u(&w);
    let t3 = rsa.mul(&pk.pow_g_u(&key.e), &pk.pow_h_u(&w));
    let h_prime = key.e.mul(&w);

    let rho_x = proofs::sample_blind(params.blind_bits(params.lambda2), rng);
    let rho_e = proofs::sample_blind(params.blind_bits(params.gamma2), rng);
    let rho_w = proofs::sample_blind(params.blind_bits(params.r_bits()), rng);
    let rho_h = proofs::sample_blind(params.blind_bits(params.h_bits()), rng);

    // B1 = g^{ρ_w}; B2 = g^{ρ_e} h^{ρ_w}; B3 = T2^{ρ_e} g^{-ρ_h};
    // B4 = a^{ρ_x} y^{ρ_h} T1^{-ρ_e}.
    let b1 = pk.pow_g(&rho_w);
    let b2 = rsa.mul(&pk.pow_g(&rho_e), &pk.pow_h(&rho_w));
    let b3 = rsa.mul(&rsa.exp_signed(&t2, &rho_e), &pk.pow_g(&rho_h.neg()));
    let b4 = rsa.mul(
        &rsa.mul(&pk.pow_a(&rho_x), &pk.pow_y(&rho_h)),
        &rsa.exp_signed(&t1, &rho_e.neg()),
    );

    let mut b = [b1, b2, b3, b4];
    if let Some(j) = negate {
        b[j] = rsa.n().sub(&b[j]);
    }
    let c = pk
        .transcript_for(message, &[&t1, &t2, &t3], &b)
        .challenge(params.k);

    let s_x = proofs::response(&rho_x, &c, &key.x, &pow2(params.lambda1));
    let s_e = proofs::response(&rho_e, &c, &key.e, &pow2(params.gamma1));
    let s_w = proofs::response(&rho_w, &c, &w, &Ubig::zero());
    let s_h = proofs::response(&rho_h, &c, &h_prime, &Ubig::zero());

    Signature {
        t1,
        t2,
        t3,
        b,
        c,
        s_x,
        s_e,
        s_w,
        s_h,
    }
}

/// `Verify`.
///
/// # Errors
///
/// [`GsigError::InvalidSignature`] on any failed check.
pub fn verify(pk: &GroupPublicKey, message: &[u8], sig: &Signature) -> Result<(), GsigError> {
    precheck(pk, message, sig)?;
    if equations_hold(pk, sig) {
        Ok(())
    } else {
        Err(GsigError::InvalidSignature)
    }
}

/// The cheap per-signature checks batch verification must also run
/// individually: element ranges, response spheres and the Fiat–Shamir
/// challenge binding `(m, T, B)`. No exponentiations.
fn precheck(pk: &GroupPublicKey, message: &[u8], sig: &Signature) -> Result<(), GsigError> {
    let params = &pk.params;
    let rsa = &pk.rsa;

    for tag in [&sig.t1, &sig.t2, &sig.t3].into_iter().chain(sig.b.iter()) {
        if tag.is_zero() || *tag >= *rsa.n() {
            return Err(GsigError::InvalidSignature);
        }
    }
    let ok = proofs::response_in_range(&sig.s_x, params.blind_bits(params.lambda2))
        && proofs::response_in_range(&sig.s_e, params.blind_bits(params.gamma2))
        && proofs::response_in_range(&sig.s_w, params.blind_bits(params.r_bits()))
        && proofs::response_in_range(&sig.s_h, params.blind_bits(params.h_bits()));
    if !ok {
        return Err(GsigError::InvalidSignature);
    }
    let c_prime = pk
        .transcript_for(message, &[&sig.t1, &sig.t2, &sig.t3], &sig.b)
        .challenge(params.k);
    if c_prime == sig.c {
        Ok(())
    } else {
        Err(GsigError::InvalidSignature)
    }
}

/// The four group equations against the transmitted commitments,
/// compared in `QR(n)`: both sides are squared, so equality is up to a
/// square root of 1 — and `±1` is the only one computable without
/// factoring `n`, making this the same quotient the batch RLC combines
/// in (see `crate::batch`). Verification operates on broadcast data
/// only, so each B product is one vartime Straus multi-exp: shared
/// squaring chain across the bases instead of one full ladder per base.
fn equations_hold(pk: &GroupPublicKey, sig: &Signature) -> bool {
    let params = &pk.params;
    let rsa = &pk.rsa;
    let e_e = proofs::shifted(&sig.s_e, &sig.c, params.gamma1);
    let e_x = proofs::shifted(&sig.s_x, &sig.c, params.lambda1);
    let c_int = Int::from_ubig(sig.c.clone());
    let b1 = rsa.multi_exp_vartime(&[(&pk.g, &sig.s_w), (&sig.t2, &c_int)]);
    let b2 = rsa.multi_exp_vartime(&[(&pk.g, &e_e), (&pk.h, &sig.s_w), (&sig.t3, &c_int)]);
    let b3 = rsa.multi_exp_vartime(&[(&sig.t2, &e_e), (&pk.g, &sig.s_h.neg())]);
    let b4 = rsa.multi_exp_vartime(&[
        (&pk.a, &e_x),
        (&pk.y, &sig.s_h),
        (&sig.t1, &e_e.neg()),
        (&pk.a0, &c_int.neg()),
    ]);
    [b1, b2, b3, b4]
        .iter()
        .zip(sig.b.iter())
        .all(|(rhs, b)| rsa.mul(rhs, rhs) == rsa.mul(b, b))
}

/// Batch `Verify`: checks `k` `(message, signature)` pairs with one
/// random-linear-combination check over the pooled group equations (see
/// [`crate::batch`]). Per-signature prechecks still run individually;
/// only the group equations are combined, and a failed combination is
/// bisected to isolate the offending indices. Both paths compare the
/// equations in `QR(n)` (squared sides / doubled coefficients), so this
/// agrees with calling [`verify`] on every pair — including order-2
/// sign-malleated commitments, which both accept — up to the 2⁻¹²⁸ RLC
/// soundness bound.
pub fn verify_batch(pk: &GroupPublicKey, items: &[(&[u8], &Signature)]) -> BatchOutcome {
    let mut bad = Vec::new();
    let mut survivors = Vec::new();
    for (i, (message, sig)) in items.iter().enumerate() {
        if precheck(pk, message, sig).is_ok() {
            survivors.push(i);
        } else {
            bad.push(i);
        }
    }
    if !survivors.is_empty() {
        let digest = batch_digest(pk, items);
        let mut rlc = |subset: &[usize]| rlc_holds(pk, items, subset, &digest);
        batch::isolate_invalid(&survivors, &mut rlc, &mut bad);
    }
    BatchOutcome::from_invalid(bad)
}

/// Binds the coefficient DRBG to the entire batch content, so the
/// combination coefficients are fixed only after every signature is.
fn batch_digest(pk: &GroupPublicKey, items: &[(&[u8], &Signature)]) -> Vec<u8> {
    let mut tr = Transcript::new("shs-gsig-acjt-batch");
    tr.append_ubig("n", pk.rsa.n());
    for (message, sig) in items {
        tr.append("m", message);
        for (label, tag) in [("T1", &sig.t1), ("T2", &sig.t2), ("T3", &sig.t3)] {
            tr.append_ubig(label, tag);
        }
        for (i, bi) in sig.b.iter().enumerate() {
            tr.append_ubig(&format!("B{}", i + 1), bi);
        }
        tr.append_ubig("c", &sig.c);
        tr.append_int("s_x", &sig.s_x);
        tr.append_int("s_e", &sig.s_e);
        tr.append_int("s_w", &sig.s_w);
        tr.append_int("s_h", &sig.s_h);
    }
    tr.challenge(256).to_bytes_be()
}

/// The combined group equation over `subset`:
/// `Π B_{i,j}^{2·z_{i,j}} == Π RHS_{i,j}^{2·z_{i,j}}`, two multi-exps.
/// Doubling every coefficient squares both sides, i.e. compares in
/// `QR(n)` exactly like the per-signature [`equations_hold`] — an
/// order-2 deviation (`±1`, the only small-order element computable
/// without factoring `n`) cancels on *every* draw instead of slipping
/// through even coefficients (see `crate::batch`). Exponents of the
/// shared bases `g, h, a, y, a0` accumulate across the subset, so their
/// ladder cost is paid once per batch.
fn rlc_holds(
    pk: &GroupPublicKey,
    items: &[(&[u8], &Signature)],
    subset: &[usize],
    digest: &[u8],
) -> bool {
    let params = &pk.params;
    let rsa = &pk.rsa;
    let two = Int::from_i64(2);
    let mut coeffs = batch::CoeffStream::new("shs-gsig-acjt", digest, subset);
    let mut e_g = Int::zero();
    let mut e_h = Int::zero();
    let mut e_a = Int::zero();
    let mut e_y = Int::zero();
    let mut e_a0 = Int::zero();
    let mut lhs: Vec<(&Ubig, Int)> = Vec::with_capacity(4 * subset.len());
    let mut per_sig: Vec<(&Ubig, Int)> = Vec::with_capacity(3 * subset.len());
    for &i in subset {
        let sig = items[i].1;
        let c = Int::from_ubig(sig.c.clone());
        let e_e = proofs::shifted(&sig.s_e, &sig.c, params.gamma1);
        let e_x = proofs::shifted(&sig.s_x, &sig.c, params.lambda1);
        let z1 = coeffs.next_coeff().mul(&two);
        let z2 = coeffs.next_coeff().mul(&two);
        let z3 = coeffs.next_coeff().mul(&two);
        let z4 = coeffs.next_coeff().mul(&two);
        // B1 = g^{s_w} T2^c and B3 = T2^{E_e} g^{-s_h} share base T2.
        e_g = e_g.add(&z1.mul(&sig.s_w)).sub(&z3.mul(&sig.s_h));
        per_sig.push((&sig.t2, z1.mul(&c).add(&z3.mul(&e_e))));
        // B2 = g^{E_e} h^{s_w} T3^c.
        e_g = e_g.add(&z2.mul(&e_e));
        e_h = e_h.add(&z2.mul(&sig.s_w));
        per_sig.push((&sig.t3, z2.mul(&c)));
        // B4 = a^{E_x} y^{s_h} T1^{-E_e} a0^{-c}.
        e_a = e_a.add(&z4.mul(&e_x));
        e_y = e_y.add(&z4.mul(&sig.s_h));
        e_a0 = e_a0.sub(&z4.mul(&c));
        per_sig.push((&sig.t1, z4.mul(&e_e).neg()));
        for (bi, z) in sig.b.iter().zip([z1, z2, z3, z4]) {
            lhs.push((bi, z));
        }
    }
    let mut rhs_terms: Vec<(&Ubig, &Int)> = vec![
        (&pk.g, &e_g),
        (&pk.h, &e_h),
        (&pk.a, &e_a),
        (&pk.y, &e_y),
        (&pk.a0, &e_a0),
    ];
    rhs_terms.extend(per_sig.iter().map(|(base, e)| (*base, e)));
    let lhs_terms: Vec<(&Ubig, &Int)> = lhs.iter().map(|(base, e)| (*base, e)).collect();
    rsa.multi_exp_vartime(&lhs_terms) == rsa.multi_exp_vartime(&rhs_terms)
}

fn pow2(bits: u32) -> Ubig {
    let mut u = Ubig::zero();
    u.set_bit(bits);
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::params::GsigPreset;
    use shs_crypto::drbg::HmacDrbg;
    use std::sync::OnceLock;

    #[test]
    fn join_secret_drop_path_wipes_exponent() {
        // Exercises the exact routine `drop` runs; post-drop memory cannot
        // be inspected from safe code.
        let mut s = JoinSecret {
            x: Ubig::from_u64(0xdead_beef),
        };
        s.wipe_in_place();
        assert!(s.x.is_zero());
    }

    fn acjt_group() -> &'static (GroupManager, Vec<MemberKey>) {
        static GROUP: OnceLock<(GroupManager, Vec<MemberKey>)> = OnceLock::new();
        GROUP.get_or_init(|| {
            let (rsa, rsa_secret) = fixtures::test_rsa_setting().clone();
            let params = GsigParams::preset(GsigPreset::Test);
            let mut rng = HmacDrbg::from_seed(b"acjt-fixture");
            let mut gm = GroupManager::setup_with_rsa(params, rsa, rsa_secret, &mut rng);
            let mut keys = Vec::new();
            for _ in 0..3 {
                let (secret, req) = start_join(gm.public_key(), &mut rng);
                let resp = gm.admit(&req, &mut rng).unwrap();
                keys.push(finish_join(gm.public_key(), secret, &resp).unwrap());
            }
            (gm, keys)
        })
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (gm, keys) = acjt_group();
        let mut rng = HmacDrbg::from_seed(b"t1");
        let sig = sign(gm.public_key(), &keys[0], b"hello acjt", &mut rng);
        verify(gm.public_key(), b"hello acjt", &sig).unwrap();
    }

    #[test]
    fn wrong_message_rejected() {
        let (gm, keys) = acjt_group();
        let mut rng = HmacDrbg::from_seed(b"t2");
        let sig = sign(gm.public_key(), &keys[0], b"msg-a", &mut rng);
        assert!(verify(gm.public_key(), b"msg-b", &sig).is_err());
    }

    #[test]
    fn open_identifies_each_signer() {
        let (gm, keys) = acjt_group();
        let mut rng = HmacDrbg::from_seed(b"t3");
        for key in keys {
            let sig = sign(gm.public_key(), key, b"open me", &mut rng);
            assert_eq!(gm.open(b"open me", &sig).unwrap(), key.id);
        }
    }

    #[test]
    fn forged_tags_rejected() {
        let (gm, keys) = acjt_group();
        let mut rng = HmacDrbg::from_seed(b"t4");
        let mut sig = sign(gm.public_key(), &keys[0], b"m", &mut rng);
        sig.t1 = gm.public_key().rsa().random_qr(&mut rng);
        assert!(verify(gm.public_key(), b"m", &sig).is_err());
    }

    #[test]
    fn no_tracing_tags_exist() {
        // Structural full-anonymity argument: an ACJT signature contains
        // only the three ElGamal-style tags, nothing keyed to the member.
        let (gm, keys) = acjt_group();
        let mut rng = HmacDrbg::from_seed(b"t5");
        let s1 = sign(gm.public_key(), &keys[0], b"m", &mut rng);
        let s2 = sign(gm.public_key(), &keys[0], b"m", &mut rng);
        assert_ne!(s1.t1, s2.t1);
        assert_ne!(s1.t2, s2.t2);
        assert_ne!(s1.t3, s2.t3);
    }

    #[test]
    fn revocation_is_registry_only() {
        let (rsa, rsa_secret) = fixtures::test_rsa_setting().clone();
        let params = GsigParams::preset(GsigPreset::Test);
        let mut rng = HmacDrbg::from_seed(b"t6");
        let mut gm = GroupManager::setup_with_rsa(params, rsa, rsa_secret, &mut rng);
        let (secret, req) = start_join(gm.public_key(), &mut rng);
        let resp = gm.admit(&req, &mut rng).unwrap();
        let key = finish_join(gm.public_key(), secret, &resp).unwrap();
        gm.revoke(key.id).unwrap();
        // The paper's §3 point: the revoked member's signature STILL
        // verifies — ACJT alone cannot stop it; the framework must layer
        // CGKD revocation on top (see E7b attack test in shs-core).
        let sig = sign(gm.public_key(), &key, b"still signs", &mut rng);
        verify(gm.public_key(), b"still signs", &sig).unwrap();
        assert!(gm.members()[0].revoked);
    }
}
