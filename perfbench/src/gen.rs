//! Seeded input generation. Every input a workload hands the program —
//! rosters, the fault mix, leaver ids, DRBG labels — is a pure function
//! of `(workload, seed, index)`, so one seed replays the same inputs
//! byte for byte on any host.

use shs_net::serve::TerminalClass;

/// SplitMix64: a tiny, fully specified generator, so the inputs do not
/// depend on any library's RNG stream staying stable.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream keyed by `seed` and a domain-separating `tag`.
    pub fn new(seed: u64, tag: &str) -> SplitMix {
        let mut s = SplitMix(seed ^ 0x5348_5342_454e_4348);
        for b in tag.bytes() {
            s.0 ^= u64::from(b);
            s.next_u64();
        }
        s
    }

    /// Next 64 output bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`; the modulo bias is below
    /// 2^-50 for the small `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct draws from `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

/// Members in the `service_paced` pool.
pub const PACED_MEMBERS: usize = 12;
/// Roster size of a `service_paced` session.
pub const PACED_M: usize = 3;
/// Members of the `roster_m16` group (all take part in every session).
pub const ROSTER_M: usize = 16;
/// Standing members of the `churn_crl` group.
pub const CHURN_STANDING: usize = 24;
/// Joins and leaves per `churn_crl` window.
pub const CHURN_JOINS: usize = 2;
/// Handshakes per `churn_crl` window.
pub const CHURN_HANDSHAKES: usize = 4;
/// Roster size of a `churn_crl` handshake.
pub const CHURN_M: usize = 3;

/// What a generated `service_paced` session does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// Every slot is a member and nothing fails.
    Clean,
    /// Slot `slot` crash-stops after round 1 of attempt 0.
    Crash {
        /// The crashing wire slot.
        slot: usize,
    },
    /// Slot `slot` is a credential-less outsider.
    Outsider {
        /// The outsider's wire slot.
        slot: usize,
    },
}

/// The terminal state a session must reach for its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// The service's terminal class.
    pub class: TerminalClass,
    /// Survivor re-formations on the way there.
    pub reformations: u32,
}

/// The expected-class table.
pub fn expected(kind: SessionKind) -> Expected {
    match kind {
        SessionKind::Clean => Expected {
            class: TerminalClass::Accepted,
            reformations: 0,
        },
        // The two survivors re-form once and complete among themselves.
        SessionKind::Crash { .. } => Expected {
            class: TerminalClass::Accepted,
            reformations: 1,
        },
        // A membership mismatch is an ordinary failure: terminal at once.
        SessionKind::Outsider { .. } => Expected {
            class: TerminalClass::Rejected,
            reformations: 0,
        },
    }
}

/// One generated `service_paced` session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacedSession {
    /// Fault mix entry.
    pub kind: SessionKind,
    /// Pool indices of the member slots, in wire-slot order (the
    /// outsider's slot, if any, ignores its entry).
    pub roster: Vec<usize>,
}

/// Session `index` of the `service_paced` stream: in each block of ten
/// consecutive sessions exactly seven are clean, two crash and one has
/// an outsider, in a seeded order.
pub fn paced_session(seed: u64, index: usize) -> PacedSession {
    let block = index / 10;
    let order = SplitMix::new(seed, &format!("paced/block{block}")).distinct(10, 10);
    let mut rng = SplitMix::new(seed, &format!("paced/s{index}"));
    let roster = rng.distinct(PACED_M, PACED_MEMBERS);
    let slot = rng.below(PACED_M);
    let kind = match order[index % 10] {
        0..=6 => SessionKind::Clean,
        7 | 8 => SessionKind::Crash { slot },
        _ => SessionKind::Outsider { slot },
    };
    PacedSession { kind, roster }
}

/// Wire-slot order of the 16 members in `roster_m16` session `index`.
pub fn roster_order(seed: u64, index: usize) -> Vec<usize> {
    SplitMix::new(seed, &format!("roster/s{index}")).distinct(ROSTER_M, ROSTER_M)
}

/// Is session `index` in the seeded sample whose transcripts are traced
/// back to their signers after the timed region (about one in eight)?
pub fn traced_sample(seed: u64, index: usize) -> bool {
    SplitMix::new(seed, &format!("sample/s{index}")).below(8) == 0
}

/// One `churn_crl` window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// Member ids revoked in this window.
    pub leavers: Vec<u64>,
    /// Member ids the window's joins will receive.
    pub joiners: Vec<u64>,
    /// Member ids of each handshake run after the window.
    pub rosters: Vec<Vec<u64>>,
}

/// The `churn_crl` membership script: simulates the roster by member
/// id (the group manager numbers joins consecutively from 0), so
/// leavers and handshake rosters are fixed by the seed alone.
#[derive(Debug, Clone)]
pub struct ChurnScript {
    rng: SplitMix,
    members: Vec<u64>,
    next_id: u64,
}

impl ChurnScript {
    /// The script after the standing members joined.
    pub fn new(seed: u64) -> ChurnScript {
        ChurnScript {
            rng: SplitMix::new(seed, "churn"),
            members: (0..CHURN_STANDING as u64).collect(),
            next_id: CHURN_STANDING as u64,
        }
    }

    /// Current member ids, in join order.
    pub fn members(&self) -> &[u64] {
        &self.members
    }

    /// The next window, applied to the simulated roster.
    pub fn next_window(&mut self) -> Window {
        let mut picks = self.rng.distinct(CHURN_JOINS, self.members.len());
        picks.sort_unstable_by(|a, b| b.cmp(a));
        let leavers: Vec<u64> = picks.iter().map(|&i| self.members.remove(i)).collect();
        let joiners: Vec<u64> = (0..CHURN_JOINS as u64).map(|k| self.next_id + k).collect();
        self.next_id += CHURN_JOINS as u64;
        self.members.extend(&joiners);
        let rosters = (0..CHURN_HANDSHAKES)
            .map(|_| {
                self.rng
                    .distinct(CHURN_M, self.members.len())
                    .into_iter()
                    .map(|i| self.members[i])
                    .collect()
            })
            .collect();
        Window {
            leavers,
            joiners,
            rosters,
        }
    }
}

/// DRBG label of one session's (or set-up's) randomness.
pub fn drbg_label(workload: &str, seed: u64, what: &str) -> String {
    format!("perfbench/{workload}/{seed}/{what}")
}

/// A canonical byte encoding of the first `n` generated inputs of
/// `workload` — what the determinism check compares.
pub fn input_bytes(workload: &str, seed: u64, n: usize) -> Vec<u8> {
    let mut out = Vec::new();
    match workload {
        "service_paced" => {
            for i in 0..n {
                out.push(format!("{:?}", paced_session(seed, i)));
            }
        }
        "roster_m16" => {
            for i in 0..n {
                out.push(format!(
                    "{:?}/{}",
                    roster_order(seed, i),
                    traced_sample(seed, i)
                ));
            }
        }
        "churn_crl" => {
            let mut script = ChurnScript::new(seed);
            for _ in 0..n {
                out.push(format!("{:?}", script.next_window()));
            }
        }
        _ => {}
    }
    for i in 0..n {
        out.push(drbg_label(workload, seed, &format!("s{i}")));
    }
    out.join("\n").into_bytes()
}
