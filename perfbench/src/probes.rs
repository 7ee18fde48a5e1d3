//! Direct layer probes of the traced run: each calls one public entry
//! point of a lower layer at the parameters the workloads run with (the
//! `Test` preset) and reports the median over a fixed number of calls.

use crate::gen::drbg_label;
use crate::report::Report;
use crate::stats::median;
use crate::trace::{within, Tracer};
use shs_bigint::rng::random_bits;
use shs_cgkd::lkh::LkhController;
use shs_cgkd::{Controller, MemberState, UserId};
use shs_crypto::drbg::HmacDrbg;
use shs_dgka::bd;
use shs_groups::schnorr::{SchnorrGroup, SchnorrPreset};
use shs_gsig::crl::Crl;
use shs_gsig::ky::{self, MemberId, RevocationToken, SignBasis};
use shs_gsig::params::{GsigParams, GsigPreset};
use std::hint::black_box;
use std::time::Instant;

/// CRL size of the revocation probe: what `churn_crl` reaches after 80
/// windows of two leaves each. Fixed, so the probe is comparable across
/// runs and workloads.
pub const CRL_PROBE_TOKENS: usize = 160;
/// Signatures per batch in the batch-verify probe: one `roster_m16`
/// slot's view of its 15 co-members.
pub const BATCH_K: usize = 15;
/// Parties of the BD probe (the `roster_m16` session width).
pub const BD_M: usize = 16;
/// LKH capacity and standing membership of the CGKD probe (`churn_crl`).
pub const LKH_CAPACITY: u32 = 1 << 16;

/// Median wall time of `reps` calls of `f`, in `unit_ns` units, each
/// call inside a probe span when tracing.
fn probe(
    tracer: &Tracer,
    name: &'static str,
    reps: usize,
    unit_ns: f64,
    mut f: impl FnMut(),
) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        within(Some(tracer), name, 0, None, |_| f());
        samples.push(t.elapsed().as_nanos() as f64 / unit_ns);
    }
    median(&samples).unwrap_or(0.0)
}

/// Runs every probe and adds its metric to `report`.
pub fn run_all(seed: u64, tracer: &Tracer, report: &mut Report) {
    let mut rng = HmacDrbg::from_seed(drbg_label("probes", seed, "rng").as_bytes());
    let params = GsigParams::preset(GsigPreset::Test);

    // bigint: the two modular-exponentiation widths the stack runs at.
    let (rsa, _) = shs_gsig::fixtures::test_rsa_setting();
    let n = rsa.n().clone();
    let base = rsa.random_qr(&mut rng);
    let cert_exp = random_bits(&mut rng, params.gamma1 + 1);
    let us = 1e3;
    let v = probe(tracer, "probe.modexp_rsa", 200, us, || {
        black_box(black_box(&base).modpow(black_box(&cert_exp), &n));
    });
    report.put("bigint.modexp_rsa_us", v, "us");
    let schnorr = SchnorrGroup::system_wide(SchnorrPreset::Test);
    let g = schnorr.random_element(&mut rng);
    let e = schnorr.random_exponent(&mut rng);
    let v = probe(tracer, "probe.modexp_schnorr", 200, us, || {
        black_box(black_box(&g).modpow(black_box(&e), schnorr.p()));
    });
    report.put("bigint.modexp_schnorr_us", v, "us");

    // gsig: a fresh KY group seeded by the run.
    let label = drbg_label("probes", seed, "gsig-group");
    let (mut gm, keys) = shs_gsig::fixtures::fresh_group_seeded(4, label.as_bytes());
    let pk = gm.public_key().clone();
    let ms = 1e6;
    let msg = b"perfbench probe message".to_vec();
    let sig = ky::sign(&pk, &keys[0], &msg, SignBasis::Random, &mut rng);
    let v = probe(tracer, "probe.sign", 20, ms, || {
        black_box(ky::sign(&pk, &keys[0], &msg, SignBasis::Random, &mut rng));
    });
    report.put("gsig.sign_ms", v, "ms");
    let v = probe(tracer, "probe.verify", 20, ms, || {
        let ok = ky::verify(&pk, &msg, black_box(&sig), None).is_ok();
        assert!(ok, "probe signature verifies");
    });
    report.put("gsig.verify_ms", v, "ms");

    let basis = b"perfbench batch basis";
    let t7 = pk.common_t7(basis);
    let batch: Vec<(Vec<u8>, ky::Signature)> = (0..BATCH_K)
        .map(|i| {
            let m = format!("batch message {i}").into_bytes();
            let s = ky::sign(
                &pk,
                &keys[i % keys.len()],
                &m,
                SignBasis::Common(basis),
                &mut rng,
            );
            (m, s)
        })
        .collect();
    let items: Vec<(&[u8], &ky::Signature)> =
        batch.iter().map(|(m, s)| (m.as_slice(), s)).collect();
    let v = probe(tracer, "probe.verify_batch", 10, ms, || {
        let ok = ky::verify_batch(&pk, black_box(&items), Some(&t7)).all_valid();
        assert!(ok, "probe batch verifies");
    });
    report.put("gsig.verify_batch_ms", v, "ms");

    // Revocation: a CRL of CRL_PROBE_TOKENS non-matching tokens and a
    // fresh signature per check, so the verdict memo is always cold.
    let mut crl = Crl::new();
    for i in 0..CRL_PROBE_TOKENS {
        crl.push(RevocationToken {
            id: MemberId(1_000_000 + i as u64),
            x: params.sample_lambda(&mut rng),
        });
    }
    let fresh: Vec<ky::Signature> = (0..10)
        .map(|_| ky::sign(&pk, &keys[1], &msg, SignBasis::Random, &mut rng))
        .collect();
    let mut next = fresh.iter();
    let v = probe(tracer, "probe.crl_check", fresh.len(), ms, || {
        let s = next.next().expect("one fresh signature per check");
        assert!(!crl.is_revoked(&pk, s), "unrevoked signer");
    });
    report.put("gsig.crl_check_ms", v, "ms");

    let v = probe(tracer, "probe.join", 10, ms, || {
        let (secret, req) = ky::start_join(gm.public_key(), &mut rng);
        let resp = gm.admit(&req, &mut rng).expect("probe join admitted");
        black_box(ky::finish_join(gm.public_key(), secret, &resp).expect("probe join finishes"));
    });
    report.put("gsig.join_ms", v, "ms");

    // dgka: party 0's share of a BD run among BD_M parties.
    let mut bd_samples = Vec::new();
    for _ in 0..20 {
        let mut parties = Vec::with_capacity(BD_M);
        let mut round1 = Vec::with_capacity(BD_M);
        let mut own = std::time::Duration::ZERO;
        for i in 0..BD_M {
            let t = Instant::now();
            let (p, r1) = bd::Party::start(schnorr, BD_M, i, &mut rng).expect("bd start");
            if i == 0 {
                own += t.elapsed();
            }
            parties.push(p);
            round1.push(r1);
        }
        let mut round2 = Vec::with_capacity(BD_M);
        for (i, p) in parties.iter_mut().enumerate() {
            let t = Instant::now();
            round2.push(p.round2(&round1).expect("bd round 2"));
            if i == 0 {
                own += t.elapsed();
            }
        }
        let t = Instant::now();
        let out = within(Some(tracer), "probe.bd_finish", 0, None, |_| {
            parties[0].finish(&round2)
        });
        own += t.elapsed();
        black_box(out.expect("bd finish"));
        bd_samples.push(own.as_nanos() as f64 / ms);
    }
    report.put("dgka.bd_round_ms", median(&bd_samples).unwrap_or(0.0), "ms");

    // cgkd: LKH windows of two joins and two leaves over a standing
    // membership, and one untouched member processing each broadcast.
    let mut lkh = LkhController::new(LKH_CAPACITY, &mut rng);
    let (welcomes, first) = lkh
        .apply_epoch(crate::gen::CHURN_STANDING, &[], &mut rng)
        .expect("lkh standing members");
    let (watch_id, watch_welcome) = welcomes.into_iter().next().expect("one welcome");
    let mut watcher = lkh.member_from_welcome(watch_welcome);
    watcher.process(&first).expect("watcher joins");
    let mut picker = crate::gen::SplitMix::new(seed, "probe/lkh");
    let (mut epoch_us, mut process_us) = (Vec::new(), Vec::new());
    for _ in 0..50 {
        let others: Vec<UserId> = lkh
            .members()
            .into_iter()
            .filter(|u| *u != watch_id)
            .collect();
        let leaves: Vec<UserId> = picker
            .distinct(crate::gen::CHURN_JOINS, others.len())
            .into_iter()
            .map(|i| others[i])
            .collect();
        let t = Instant::now();
        let (_, broadcast) = within(Some(tracer), "probe.lkh_epoch", 0, None, |_| {
            lkh.apply_epoch(crate::gen::CHURN_JOINS, &leaves, &mut rng)
        })
        .expect("lkh window");
        epoch_us.push(t.elapsed().as_nanos() as f64 / us);
        let t = Instant::now();
        within(Some(tracer), "probe.lkh_process", 0, None, |_| {
            watcher.process(&broadcast)
        })
        .expect("watcher processes the window");
        process_us.push(t.elapsed().as_nanos() as f64 / us);
        assert!(
            watcher.group_key() == lkh.group_key(),
            "watcher keeps the group key"
        );
    }
    report.put("cgkd.epoch_us", median(&epoch_us).unwrap_or(0.0), "us");
    report.put("cgkd.process_us", median(&process_us).unwrap_or(0.0), "us");
}
