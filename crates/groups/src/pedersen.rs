//! Pedersen commitments over a Schnorr group.
//!
//! Used by the interactive `GSIG.Join` protocol (the member commits to its
//! secret exponent before proving knowledge of it) and referenced by the
//! paper's scheme-2 CASE 2, where parties *simulate* the commitment
//! protocol on failed handshakes.

use crate::schnorr::SchnorrGroup;
use rand::RngCore;
use shs_bigint::Ubig;

/// Commitment parameters: two generators with unknown mutual discrete log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitParams {
    /// First base (the group generator).
    pub g: Ubig,
    /// Second base, derived by hashing so nobody knows `log_g h`.
    pub h: Ubig,
}

/// A Pedersen commitment `g^m h^r`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commitment(pub Ubig);

/// The opening `(m, r)` of a commitment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opening {
    /// Committed value.
    pub m: Ubig,
    /// Blinding randomness.
    pub r: Ubig,
}

impl CommitParams {
    /// Derives parameters for a group; `h` is a nothing-up-my-sleeve hash
    /// point so that `log_g h` is unknown to everyone.
    pub fn derive(group: &SchnorrGroup) -> CommitParams {
        CommitParams {
            g: group.g().clone(),
            h: group.hash_to_group(b"shs-pedersen-h"),
        }
    }

    /// Commits to `m` with fresh randomness.
    pub fn commit(
        &self,
        group: &SchnorrGroup,
        m: &Ubig,
        rng: &mut (impl RngCore + ?Sized),
    ) -> (Commitment, Opening) {
        let r = group.random_exponent(rng);
        let c = self.commit_with(group, m, &r);
        (c, Opening { m: m.clone(), r })
    }

    /// Commits with caller-provided randomness.
    pub fn commit_with(&self, group: &SchnorrGroup, m: &Ubig, r: &Ubig) -> Commitment {
        Commitment(group.mul(&group.exp(&self.g, m), &group.exp(&self.h, r)))
    }

    /// Verifies an opening.
    pub fn verify(&self, group: &SchnorrGroup, c: &Commitment, o: &Opening) -> bool {
        self.commit_with(group, &o.m, &o.r) == *c
    }

    /// Homomorphic addition: `commit(m1, r1)·commit(m2, r2) =
    /// commit(m1+m2, r1+r2)`.
    pub fn add(&self, group: &SchnorrGroup, a: &Commitment, b: &Commitment) -> Commitment {
        Commitment(group.mul(&a.0, &b.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schnorr::SchnorrPreset;
    use rand::SeedableRng;

    fn setup() -> (&'static SchnorrGroup, CommitParams) {
        let g = SchnorrGroup::system_wide(SchnorrPreset::Test);
        (g, CommitParams::derive(g))
    }

    #[test]
    fn commit_verify() {
        let (g, params) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(30);
        let m = g.random_exponent(&mut rng);
        let (c, o) = params.commit(g, &m, &mut rng);
        assert!(params.verify(g, &c, &o));
    }

    #[test]
    fn wrong_opening_rejected() {
        let (g, params) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let m = g.random_exponent(&mut rng);
        let (c, o) = params.commit(g, &m, &mut rng);
        let bad_m = Opening {
            m: o.m.add_u64(1),
            r: o.r.clone(),
        };
        assert!(!params.verify(g, &c, &bad_m));
        let bad_r = Opening {
            m: o.m,
            r: o.r.add_u64(1),
        };
        assert!(!params.verify(g, &c, &bad_r));
    }

    #[test]
    fn hiding_under_fresh_randomness() {
        let (g, params) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let m = g.random_exponent(&mut rng);
        let (c1, _) = params.commit(g, &m, &mut rng);
        let (c2, _) = params.commit(g, &m, &mut rng);
        assert_ne!(c1, c2);
    }

    #[test]
    fn homomorphic_addition() {
        let (g, params) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let m1 = g.random_exponent(&mut rng);
        let m2 = g.random_exponent(&mut rng);
        let (c1, o1) = params.commit(g, &m1, &mut rng);
        let (c2, o2) = params.commit(g, &m2, &mut rng);
        let sum = params.add(g, &c1, &c2);
        let o = Opening {
            m: o1.m.addm(&o2.m, g.q()),
            r: o1.r.addm(&o2.r, g.q()),
        };
        assert!(params.verify(g, &sum, &o));
    }
}
