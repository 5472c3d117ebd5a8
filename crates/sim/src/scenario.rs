//! Shared experiment scenario assembly.
//!
//! Every experiment starts from the same shape of world the paper starts
//! from: a two-year synthetic trace bundle, a virtual file system restored
//! from the last warm-up-year snapshot, and — because the paper's snapshot
//! "has already been a result of the 90-day FLT data retention" — one
//! unbounded FLT-90 pre-purge applied before replay begins.

use crate::engine::{build_initial_fs, pre_purge_flt};
use activedr_fs::VirtualFs;
use activedr_trace::{generate, SynthConfig, TraceSet};
use serde::{Deserialize, Serialize};

/// Experiment scale knob: trade fidelity for runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// ~60 users — unit-test scale.
    Tiny,
    /// ~400 users — integration-test / quick-look scale.
    Small,
    /// ~2000 users — the default experiment scale.
    Paper,
}

impl Scale {
    pub fn synth_config(self, seed: u64) -> SynthConfig {
        match self {
            Scale::Tiny => SynthConfig::tiny(seed),
            Scale::Small => SynthConfig::small(seed),
            Scale::Paper => SynthConfig::paper_scale(seed),
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// A ready-to-run experiment world.
pub struct Scenario {
    pub traces: TraceSet,
    pub initial_fs: VirtualFs,
    pub seed: u64,
    pub scale: Scale,
}

impl Scenario {
    /// Build the standard scenario: generate traces, restore the initial
    /// file system, apply the FLT-90 pre-purge.
    pub fn build(scale: Scale, seed: u64) -> Scenario {
        let traces = generate(&scale.synth_config(seed));
        let mut initial_fs = build_initial_fs(&traces);
        pre_purge_flt(&mut initial_fs, traces.replay_start(), 90);
        // §4.1.3: "the total storage capacity" is the total synthesized
        // size of the files in the last warm-up snapshot — which is
        // already FLT-filtered, so the replay starts at 100 % utilization.
        initial_fs.set_capacity(initial_fs.used_bytes());
        Scenario {
            traces,
            initial_fs,
            seed,
            scale,
        }
    }

    /// The day index (paper: Aug 23, 2016) used for the single-snapshot
    /// retention experiments of Figs. 9-11 — 235 days into the replay.
    pub fn snapshot_day(&self) -> i64 {
        i64::from(self.traces.replay_start_day) + 235
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_prepurged_state() {
        let s = Scenario::build(Scale::Tiny, 5);
        assert!(s.initial_fs.file_count() > 0);
        assert!(s.initial_fs.used_bytes() <= s.initial_fs.capacity());
        assert!(s.snapshot_day() > i64::from(s.traces.replay_start_day));
        assert!(s.snapshot_day() < i64::from(s.traces.horizon_days));
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }
}
