//! Textbook ElGamal encryption over a Schnorr group (IND-CPA).
//!
//! Not used on the critical path of the handshake (the tracing key needs
//! IND-CCA2 — see [`crate::cs`]) but provided as the classic baseline and
//! used by the opening-proof machinery of `shs-gsig` in tests.

use crate::schnorr::SchnorrGroup;
use crate::GroupError;
use rand::RngCore;
use shs_bigint::Ubig;

/// An ElGamal public key `y = g^x`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicKey {
    /// `g^x mod p`.
    pub y: Ubig,
}

/// An ElGamal secret key `x`.
#[derive(Clone)]
pub struct SecretKey {
    /// The discrete log of `y`.
    pub x: Ubig,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecretKey(****)")
    }
}

/// An ElGamal ciphertext `(c1, c2) = (g^r, m·y^r)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    /// `g^r`.
    pub c1: Ubig,
    /// `m · y^r`.
    pub c2: Ubig,
}

/// Generates a keypair.
pub fn keygen(group: &SchnorrGroup, rng: &mut (impl RngCore + ?Sized)) -> (PublicKey, SecretKey) {
    let x = group.random_exponent(rng);
    let y = group.exp_g(&x);
    (PublicKey { y }, SecretKey { x })
}

/// Encrypts a group element.
///
/// # Errors
///
/// [`GroupError::NotInGroup`] when `m` is not a subgroup member.
pub fn encrypt(
    group: &SchnorrGroup,
    pk: &PublicKey,
    m: &Ubig,
    rng: &mut (impl RngCore + ?Sized),
) -> Result<Ciphertext, GroupError> {
    if !group.is_member(m) {
        return Err(GroupError::NotInGroup);
    }
    let r = group.random_exponent(rng);
    Ok(Ciphertext {
        c1: group.exp_g(&r),
        c2: group.mul(m, &group.exp(&pk.y, &r)),
    })
}

/// Decrypts to the group element.
///
/// # Errors
///
/// [`GroupError::NotInvertible`] cannot occur for well-formed ciphertexts
/// but is propagated from the division.
pub fn decrypt(group: &SchnorrGroup, sk: &SecretKey, ct: &Ciphertext) -> Result<Ubig, GroupError> {
    let s = group.exp(&ct.c1, &sk.x);
    group.div(&ct.c2, &s)
}

/// Component-wise product of two ciphertexts: encrypts the product of the
/// plaintexts (the multiplicative homomorphism of ElGamal).
pub fn homomorphic_mul(group: &SchnorrGroup, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
    Ciphertext {
        c1: group.mul(&a.c1, &b.c1),
        c2: group.mul(&a.c2, &b.c2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schnorr::SchnorrPreset;
    use rand::SeedableRng;

    fn group() -> &'static SchnorrGroup {
        SchnorrGroup::system_wide(SchnorrPreset::Test)
    }

    #[test]
    fn roundtrip() {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let (pk, sk) = keygen(g, &mut rng);
        let m = g.random_element(&mut rng);
        let ct = encrypt(g, &pk, &m, &mut rng).unwrap();
        assert_eq!(decrypt(g, &sk, &ct).unwrap(), m);
    }

    #[test]
    fn rejects_non_members() {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (pk, _) = keygen(g, &mut rng);
        assert_eq!(
            encrypt(g, &pk, &Ubig::zero(), &mut rng),
            Err(GroupError::NotInGroup)
        );
    }

    #[test]
    fn wrong_key_garbles() {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let (pk, _sk) = keygen(g, &mut rng);
        let (_pk2, sk2) = keygen(g, &mut rng);
        let m = g.random_element(&mut rng);
        let ct = encrypt(g, &pk, &m, &mut rng).unwrap();
        assert_ne!(decrypt(g, &sk2, &ct).unwrap(), m);
    }

    #[test]
    fn randomized_encryption() {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let (pk, _) = keygen(g, &mut rng);
        let m = g.random_element(&mut rng);
        let a = encrypt(g, &pk, &m, &mut rng).unwrap();
        let b = encrypt(g, &pk, &m, &mut rng).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn homomorphism() {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let (pk, sk) = keygen(g, &mut rng);
        let m1 = g.random_element(&mut rng);
        let m2 = g.random_element(&mut rng);
        let c1 = encrypt(g, &pk, &m1, &mut rng).unwrap();
        let c2 = encrypt(g, &pk, &m2, &mut rng).unwrap();
        let prod = homomorphic_mul(g, &c1, &c2);
        assert_eq!(decrypt(g, &sk, &prod).unwrap(), g.mul(&m1, &m2));
    }
}
