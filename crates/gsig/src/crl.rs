//! The certificate revocation list (CRL).
//!
//! `SHS.CreateGroup` (Fig. 1 of the paper) creates an initially-empty CRL
//! that is "made known only to current group members"; `SHS.RemoveUser`
//! appends to it and ships the update over the authenticated anonymous
//! channel (in the framework: AEAD-encrypted under the *new* CGKD group
//! key, so revoked members cannot read it). Entries are the verifier-local
//! revocation tokens of [`crate::ky`].

use crate::ky::{GroupPublicKey, RevocationToken, Signature};
use shs_crypto::sha256;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// A versioned list of revocation tokens.
///
/// Checking a signature against a VLR-style CRL is inherently `O(r)` the
/// *first* time — `T5` is fresh randomness per signature, so each token
/// needs its own exponentiation — but the handshake re-checks the same
/// signatures from many member instances in the same process. The CRL
/// therefore keeps a running *fingerprint* (a hash chain over the token
/// insertion sequence) and memoizes verdicts process-wide keyed on
/// `(fingerprint, version, signature tags)`: every re-check of a known
/// signature is an `O(1)` table hit, from any clone of the same CRL
/// state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Crl {
    /// Monotone version; bumped on every revocation.
    pub version: u64,
    /// Tokens of all revoked members.
    pub tokens: Vec<RevocationToken>,
    /// Hash chain over the token insertion sequence: two CRL states with
    /// the same fingerprint hold the same tokens in the same order, so
    /// memoized verdicts transfer between clones.
    fingerprint: [u8; 32],
}

/// Bound on the process-wide verdict memo; on overflow the table is
/// cleared (verdicts are pure caches and re-derivable).
const MEMO_CAP: usize = 8192;

fn memo() -> &'static Mutex<HashMap<[u8; 32], bool>> {
    static MEMO: OnceLock<Mutex<HashMap<[u8; 32], bool>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// An incremental CRL update (what actually travels in rekey messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrlDelta {
    /// Version the delta applies on top of.
    pub from_version: u64,
    /// Version after applying.
    pub to_version: u64,
    /// Newly revoked tokens.
    pub new_tokens: Vec<RevocationToken>,
}

/// Error applying a CRL delta out of order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionMismatch {
    /// The version the member holds.
    pub have: u64,
    /// The version the delta expects.
    pub expected: u64,
}

impl std::fmt::Display for VersionMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CRL delta expects version {} but member holds {}",
            self.expected, self.have
        )
    }
}

impl std::error::Error for VersionMismatch {}

impl CrlDelta {
    /// Merges a consecutive later delta into this one, producing the
    /// single delta covering both windows — what a batched epoch ships
    /// when it revokes several members at once.
    ///
    /// # Errors
    ///
    /// [`VersionMismatch`] unless `later` starts exactly where `self`
    /// ends.
    pub fn merge(self, later: CrlDelta) -> Result<CrlDelta, VersionMismatch> {
        if later.from_version != self.to_version {
            return Err(VersionMismatch {
                have: self.to_version,
                expected: later.from_version,
            });
        }
        let mut new_tokens = self.new_tokens;
        new_tokens.extend(later.new_tokens);
        Ok(CrlDelta {
            from_version: self.from_version,
            to_version: later.to_version,
            new_tokens,
        })
    }
}

/// Digest of one token for the fingerprint chain.
fn token_digest(token: &RevocationToken) -> [u8; 32] {
    let x = token.x.to_bytes_be();
    let mut data = Vec::with_capacity(16 + x.len());
    data.extend_from_slice(&token.id.0.to_be_bytes());
    data.extend_from_slice(&(x.len() as u64).to_be_bytes());
    data.extend_from_slice(&x);
    sha256::digest(&data)
}

impl Crl {
    /// An empty CRL at version 0.
    pub fn new() -> Crl {
        Crl::default()
    }

    /// Absorbs one appended token into the fingerprint chain.
    fn absorb(&mut self, token: &RevocationToken) {
        let mut data = [0u8; 64];
        data[..32].copy_from_slice(&self.fingerprint);
        data[32..].copy_from_slice(&token_digest(token));
        self.fingerprint = sha256::digest(&data);
    }

    /// Appends a token, bumping the version, and returns the delta to
    /// distribute.
    pub fn push(&mut self, token: RevocationToken) -> CrlDelta {
        let from_version = self.version;
        self.absorb(&token);
        self.tokens.push(token.clone());
        self.version += 1;
        CrlDelta {
            from_version,
            to_version: self.version,
            new_tokens: vec![token],
        }
    }

    /// Applies a delta received from the group authority. Deltas stream:
    /// a batched epoch's merged delta applies in one call, and the
    /// fingerprint chain advances token by token exactly as it did on
    /// the authority side, so memoized verdicts stay shared.
    ///
    /// # Errors
    ///
    /// [`VersionMismatch`] when deltas arrive out of order.
    pub fn apply(&mut self, delta: &CrlDelta) -> Result<(), VersionMismatch> {
        if delta.from_version != self.version {
            return Err(VersionMismatch {
                have: self.version,
                expected: delta.from_version,
            });
        }
        for token in &delta.new_tokens {
            self.absorb(token);
            self.tokens.push(token.clone());
        }
        self.version = delta.to_version;
        Ok(())
    }

    /// Does this signature match any revoked member?
    ///
    /// First check of a fresh signature costs one exponentiation per
    /// token (inherent to verifier-local revocation: `T5` is per-
    /// signature randomness); every later check of the same signature
    /// against the same CRL state — from this instance or any clone —
    /// is an `O(1)` memo hit.
    pub fn is_revoked(&self, pk: &GroupPublicKey, sig: &Signature) -> bool {
        if self.tokens.is_empty() {
            return false;
        }
        let key = self.memo_key(sig);
        {
            let table = memo().lock().unwrap_or_else(|e| e.into_inner());
            if let Some(&verdict) = table.get(&key) {
                return verdict;
            }
        }
        let verdict = self.tokens.iter().any(|t| t.matches(pk, sig));
        let mut table = memo().lock().unwrap_or_else(|e| e.into_inner());
        if table.len() >= MEMO_CAP {
            table.clear();
        }
        table.insert(key, verdict);
        verdict
    }

    /// Memo key: CRL state (fingerprint + version) and the signature's
    /// revocation-relevant tags.
    fn memo_key(&self, sig: &Signature) -> [u8; 32] {
        let t5 = sig.tags.t5.to_bytes_be();
        let t4 = sig.tags.t4.to_bytes_be();
        let mut data = Vec::with_capacity(56 + t5.len() + t4.len());
        data.extend_from_slice(&self.fingerprint);
        data.extend_from_slice(&self.version.to_be_bytes());
        data.extend_from_slice(&(t5.len() as u64).to_be_bytes());
        data.extend_from_slice(&t5);
        data.extend_from_slice(&t4);
        sha256::digest(&data)
    }

    /// Number of revoked members.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Is the CRL empty?
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::ky::{self, SignBasis};
    use shs_crypto::drbg::HmacDrbg;

    #[test]
    fn push_apply_roundtrip() {
        let (mut gm, keys) = fixtures::group_with_members_mut(2);
        let mut authority_crl = Crl::new();
        let mut member_crl = Crl::new();

        let token = gm.revoke(keys[0].id).unwrap();
        let delta = authority_crl.push(token);
        member_crl.apply(&delta).unwrap();
        assert_eq!(authority_crl, member_crl);
        assert_eq!(member_crl.version, 1);
        assert_eq!(member_crl.len(), 1);
    }

    #[test]
    fn out_of_order_delta_rejected() {
        let (mut gm, keys) = fixtures::group_with_members_mut(2);
        let mut authority_crl = Crl::new();
        let mut member_crl = Crl::new();
        let d1 = authority_crl.push(gm.revoke(keys[0].id).unwrap());
        let d2 = authority_crl.push(gm.revoke(keys[1].id).unwrap());
        // Applying d2 before d1 fails.
        assert!(member_crl.apply(&d2).is_err());
        member_crl.apply(&d1).unwrap();
        member_crl.apply(&d2).unwrap();
        assert_eq!(member_crl.version, 2);
    }

    #[test]
    fn is_revoked_detects_signatures() {
        let (mut gm, keys) = fixtures::group_with_members_mut(2);
        let pk = ky::GroupPublicKey::from_params(gm.public_key().to_params());
        let mut rng = HmacDrbg::from_seed(b"crl-test");
        let sig_revoked = ky::sign(&pk, &keys[0], b"m", SignBasis::Random, &mut rng);
        let sig_ok = ky::sign(&pk, &keys[1], b"m", SignBasis::Random, &mut rng);
        let mut crl = Crl::new();
        crl.push(gm.revoke(keys[0].id).unwrap());
        assert!(crl.is_revoked(&pk, &sig_revoked));
        assert!(!crl.is_revoked(&pk, &sig_ok));
    }

    #[test]
    fn empty_crl() {
        let crl = Crl::new();
        assert!(crl.is_empty());
        assert_eq!(crl.len(), 0);
        assert_eq!(crl.version, 0);
    }

    #[test]
    fn merged_delta_applies_as_one_stream() {
        let (mut gm, keys) = fixtures::group_with_members_mut(3);
        let mut authority_crl = Crl::new();
        let mut member_crl = Crl::new();
        let d1 = authority_crl.push(gm.revoke(keys[0].id).unwrap());
        let d2 = authority_crl.push(gm.revoke(keys[1].id).unwrap());
        let d3 = authority_crl.push(gm.revoke(keys[2].id).unwrap());
        // One batched window ships one merged delta.
        let merged = d1.merge(d2).unwrap().merge(d3).unwrap();
        assert_eq!(merged.from_version, 0);
        assert_eq!(merged.to_version, 3);
        member_crl.apply(&merged).unwrap();
        // Token-by-token and batched application land on the identical
        // state, fingerprint chain included.
        assert_eq!(authority_crl, member_crl);
    }

    #[test]
    fn non_consecutive_merge_rejected() {
        let (mut gm, keys) = fixtures::group_with_members_mut(2);
        let mut crl = Crl::new();
        let d1 = crl.push(gm.revoke(keys[0].id).unwrap());
        let _skip = crl.push(gm.revoke(keys[1].id).unwrap());
        let d3 = CrlDelta {
            from_version: 5,
            to_version: 6,
            new_tokens: Vec::new(),
        };
        assert!(d1.merge(d3).is_err());
    }

    #[test]
    fn repeated_checks_memoized_across_clones() {
        let (mut gm, keys) = fixtures::group_with_members_mut(2);
        let pk = ky::GroupPublicKey::from_params(gm.public_key().to_params());
        let mut rng = HmacDrbg::from_seed(b"crl-memo");
        let sig_revoked = ky::sign(&pk, &keys[0], b"m", SignBasis::Random, &mut rng);
        let sig_ok = ky::sign(&pk, &keys[1], b"m", SignBasis::Random, &mut rng);
        let mut crl = Crl::new();
        crl.push(gm.revoke(keys[0].id).unwrap());
        let clone = crl.clone();
        // Same verdicts from the original and a clone (memo-hit path),
        // repeated to exercise both the miss and the hit branch.
        for _ in 0..2 {
            assert!(crl.is_revoked(&pk, &sig_revoked));
            assert!(clone.is_revoked(&pk, &sig_revoked));
            assert!(!crl.is_revoked(&pk, &sig_ok));
            assert!(!clone.is_revoked(&pk, &sig_ok));
        }
        // Advancing the CRL changes the state key: verdicts re-derive
        // and the now-revoked member is caught.
        crl.push(gm.revoke(keys[1].id).unwrap());
        assert!(crl.is_revoked(&pk, &sig_ok));
        assert!(!clone.is_revoked(&pk, &sig_ok), "clone is at the old state");
    }
}
