//! The repository's benchmark: three seeded workloads against the public
//! APIs of `shs-core` and `shs-net`, end-to-end metrics from untraced
//! runs and per-layer metrics from a traced run. `BENCHMARK.json` at the
//! repository root defines the contract; `src/main.rs` is the command.

pub mod gen;
pub mod host;
pub mod medium;
pub mod probes;
pub mod report;
pub mod stats;
pub mod tcp;
pub mod trace;
pub mod workloads;

/// End-to-end metrics and units, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("session_ms_p50", "ms"),
    ("session_ms_p90", "ms"),
    ("sessions_per_s", "1/s"),
    ("success_frac", "ratio"),
    ("epoch_ms_p50", "ms"),
    ("sync_us_p50", "us"),
];

/// Per-layer metrics and units, reported by every traced run. The direct
/// probes and the TCP probe run in every traced run; a layer a workload
/// never enters otherwise (`serve.*` outside `service_paced`) reports 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("bigint.modexp_per_session", "count"),
    ("bigint.modexp_rsa_us", "us"),
    ("bigint.modexp_schnorr_us", "us"),
    ("gsig.sign_ms", "ms"),
    ("gsig.verify_ms", "ms"),
    ("gsig.verify_batch_ms", "ms"),
    ("gsig.crl_check_ms", "ms"),
    ("gsig.join_ms", "ms"),
    ("dgka.bd_round_ms", "ms"),
    ("cgkd.epoch_us", "us"),
    ("cgkd.process_us", "us"),
    ("handshake.phase1_ms", "ms"),
    ("handshake.phase2_ms", "ms"),
    ("handshake.phase3_ms", "ms"),
    ("handshake.exchanges_per_session", "count"),
    ("handshake.retries_per_session", "count"),
    ("sync.exchange_us", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.link_wait_share", "ratio"),
    ("serve.attempts_per_session", "count"),
    ("serve.accepted_per_attempt", "ratio"),
    ("serve.generator_lateness_ms", "ms"),
    ("tcp.attach_ms", "ms"),
    ("tcp.party_ms", "ms"),
    ("tcp.teardown_ms", "ms"),
    ("tcp.wire_bytes_per_session", "bytes"),
    ("tcp.reconnects", "count"),
    ("tcp.deadline_timeouts", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_max", "ratio"),
];
