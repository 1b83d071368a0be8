//! The pathcons benchmark: four named traffic mixes through
//! `pathcons serve` (three over a unix socket) and the batch engine
//! (`typed_m`, in-process), each output checked, plus a traced
//! in-process replay that splits job time by layer.
//!
//! Run it through `perfbench/run.sh` from the repository root, which
//! builds the `pathcons` binary and this benchmark first:
//!
//! ```text
//! bash perfbench/run.sh --workload hot_keys --seed 1 --seconds 10 --trace 0
//! bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 1
//! ```

pub mod bench;
pub mod drive;
pub mod gen;
pub mod report;
pub mod trace;
pub mod verify;

/// The named traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Alpha-renamed 3-constraint word theories, log-skewed keys over a
    /// universe wider than the answer cache.
    HotKeys,
    /// Distinct jobs carrying their own Σ: word theories mostly, plus
    /// local-extent and general-`P_c` minorities.
    ColdUntyped,
    /// One resident 128-constraint word context loaded from a snapshot
    /// with `--warm`; empty-Σ jobs with distinct implied rhs.
    SharedWarm,
    /// `M` schemas through the typed congruence closure, in-process.
    TypedM,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::HotKeys,
        Workload::ColdUntyped,
        Workload::SharedWarm,
        Workload::TypedM,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotKeys => "hot_keys",
            Workload::ColdUntyped => "cold_untyped",
            Workload::SharedWarm => "shared_warm",
            Workload::TypedM => "typed_m",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs from the start of the stream whose verdicts form the digest
    /// and that the traced run replays. Every run answers all of them:
    /// jobs the timed window did not reach are sent after it.
    pub fn digest_jobs(self, size: gen::Size) -> usize {
        match (self, size) {
            (Workload::HotKeys, gen::Size::Full) => 16384,
            (_, gen::Size::Full) => 400,
            (Workload::HotKeys, gen::Size::Small) => 512,
            (_, gen::Size::Small) => 24,
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Digest of a verdict stream: FNV-1a over `"<index> <verdict>\n"`
/// lines in stream order.
pub fn verdict_digest<'a>(verdicts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut text = String::new();
    for (i, v) in verdicts.into_iter().enumerate() {
        text.push_str(&format!("{i} {v}\n"));
    }
    fnv1a(text.as_bytes())
}
