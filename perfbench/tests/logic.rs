//! Tests of the benchmark's own logic: the percentile rule, the
//! self-time arithmetic, generator determinism, the expected-class
//! table, and agreement between the code and `BENCHMARK.json`.

use shs_net::serve::TerminalClass;
use shs_perfbench::gen::{
    expected, input_bytes, paced_session, ChurnScript, SessionKind, CHURN_JOINS, CHURN_STANDING,
};
use shs_perfbench::report::Report;
use shs_perfbench::stats::{median, percentile, rank};
use shs_perfbench::trace::{covered, phase_of, phase_split, self_time, Span};
use shs_perfbench::workloads::{breakdowns, unattributed, WORKLOADS};
use shs_perfbench::{END_TO_END, PER_LAYER};

fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        session: 7,
        name,
        start,
        end,
    }
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(
        rank(99, 0.9),
        None,
        "p90 of 99 samples has only 9 beyond it"
    );
    assert_eq!(rank(100, 0.9), Some(89));
    assert_eq!(rank(19, 0.5), None);
    assert_eq!(rank(20, 0.5), Some(9));
    assert_eq!(rank(0, 0.5), None);
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.9), Some(90.0));
    assert_eq!(percentile(&samples, 0.5), Some(50.0));
    assert_eq!(percentile(&samples[..99], 0.9), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let parent = span(1, None, "handshake", 0, 100);
    let a = span(2, Some(1), "x", 10, 30);
    let b = span(3, Some(1), "x", 20, 40); // overlaps a: counted once
    let c = span(4, Some(1), "x", 90, 120); // sticks out: clipped at 100
    assert_eq!(covered(&[(10, 30), (20, 40), (90, 120)], 0, 100), 40);
    assert_eq!(self_time(&parent, &[&a, &b, &c]), 60);
    assert_eq!(self_time(&parent, &[]), 100);
    assert_eq!(
        covered(&[(5, 5), (50, 40)], 0, 100),
        0,
        "empty intervals cover nothing"
    );
}

#[test]
fn phases_own_the_compute_before_their_exchanges() {
    let ex = [(10, 20, 1), (30, 40, 1), (50, 60, 2), (70, 80, 3)];
    // p1: 0..10 + 20..30; p2: 40..50; p3: 60..70 plus the tail 80..100.
    assert_eq!(phase_split(0, 100, &ex), [20, 10, 30]);
    assert_eq!(phase_split(0, 100, &[]), [100, 0, 0]);
    assert_eq!(phase_of("bd-round-0"), 1);
    assert_eq!(phase_of("phase2-mac"), 2);
    assert_eq!(phase_of("phase3-full"), 3);
}

#[test]
fn a_breakdown_attributes_the_whole_root() {
    let spans = vec![
        span(1, None, "handshake", 0, 100),
        span(2, Some(1), "exchange.p1", 10, 30),
        span(3, Some(2), "link_wait", 10, 25),
        span(4, Some(1), "exchange.p3", 60, 70),
        span(5, None, "handshake", 200, 210),
    ];
    let runs = breakdowns(&spans, "handshake");
    assert_eq!(runs.len(), 2);
    let b = &runs[0];
    assert_eq!(b.link_wait, 15);
    assert_eq!(b.exchange_self, vec![5, 10]);
    assert_eq!(b.phases, [10, 0, 60]);
    assert_eq!(b.attributed(), 100);
    assert_eq!(unattributed(100, b.attributed()), 0.0);
    assert!((unattributed(100, 88) - 0.12).abs() < 1e-12);
    assert_eq!(runs[1].phases, [10, 0, 0]);
}

#[test]
fn one_seed_gives_the_same_inputs_byte_for_byte() {
    for w in WORKLOADS {
        let a = input_bytes(w, 7, 64);
        assert_eq!(a, input_bytes(w, 7, 64), "{w}");
        assert_ne!(a, input_bytes(w, 8, 64), "{w}: the seed matters");
    }
}

#[test]
fn every_block_of_ten_paced_sessions_has_the_stated_mix() {
    for seed in [0, 1, 99] {
        for block in 0..20 {
            let kinds: Vec<SessionKind> = (block * 10..block * 10 + 10)
                .map(|i| paced_session(seed, i).kind)
                .collect();
            let count = |f: fn(&SessionKind) -> bool| kinds.iter().filter(|k| f(k)).count();
            assert_eq!(count(|k| *k == SessionKind::Clean), 7);
            assert_eq!(count(|k| matches!(k, SessionKind::Crash { .. })), 2);
            assert_eq!(count(|k| matches!(k, SessionKind::Outsider { .. })), 1);
        }
        for i in 0..100 {
            let s = paced_session(seed, i);
            let mut r = s.roster.clone();
            r.sort_unstable();
            r.dedup();
            assert_eq!(r.len(), 3, "distinct members");
        }
    }
}

#[test]
fn the_churn_script_revokes_current_members_and_numbers_joins() {
    let mut script = ChurnScript::new(5);
    let mut next = CHURN_STANDING as u64;
    for _ in 0..40 {
        let before = script.members().to_vec();
        let w = script.next_window();
        assert_eq!(w.leavers.len(), CHURN_JOINS);
        assert!(w.leavers.iter().all(|id| before.contains(id)));
        assert_eq!(w.joiners, vec![next, next + 1]);
        next += CHURN_JOINS as u64;
        assert_eq!(script.members().len(), CHURN_STANDING);
        for r in &w.rosters {
            assert!(r.iter().all(|id| script.members().contains(id)));
        }
    }
}

#[test]
fn the_expected_class_table() {
    let clean = expected(SessionKind::Clean);
    assert_eq!(
        (clean.class, clean.reformations),
        (TerminalClass::Accepted, 0)
    );
    let crash = expected(SessionKind::Crash { slot: 2 });
    assert_eq!(
        (crash.class, crash.reformations),
        (TerminalClass::Accepted, 1)
    );
    let outsider = expected(SessionKind::Outsider { slot: 0 });
    assert_eq!(
        (outsider.class, outsider.reformations),
        (TerminalClass::Rejected, 0)
    );
}

#[test]
fn a_failed_check_fails_the_run() {
    let mut r = Report::default();
    r.check(true, String::new);
    r.put("setup_s", 0.5, "s");
    assert!(r.correct());
    assert_eq!(
        r.json(&["setup_s"]),
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
    );
    r.check(false, || "planted".to_string());
    assert!(!r.correct());
    assert_eq!(r.failed_frac(), 0.5);
    let mut invalid = Report::default();
    invalid.check(true, String::new);
    invalid.invalidate("generator fell behind".to_string());
    assert!(!invalid.correct());
}

#[test]
fn benchmark_json_lists_what_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "metric {name} ({unit})"
        );
    }
    let names = json.matches("\"name\": ").count();
    assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
}
