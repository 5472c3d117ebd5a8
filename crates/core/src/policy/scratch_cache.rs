//! The "scratch-as-a-cache" baseline (Monti et al., ICS '09; paper §2).
//!
//! Under this model the scratch space is a cache for running jobs: "a data
//! file can only stay in a given scratch space if an application is using
//! it". Operationally that is an extremely short fixed lifetime — a file
//! not accessed within the current job window is evicted, and returning
//! jobs must re-stage their inputs from archive. The paper excludes this
//! approach precisely because of the re-staging churn; implementing it
//! here lets the emulation *measure* that churn (restage traffic) against
//! FLT and ActiveDR.

use super::{PurgeRequest, PurgedFile, RetentionOutcome, RetentionPolicy};
use crate::time::TimeDelta;

/// Evict-everything-idle retention: the §2 scratch-as-a-cache model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScratchCachePolicy {
    /// The job window: files idle longer than this are evicted. Defaults
    /// to the purge trigger interval (7 days) — the most generous reading
    /// of "while an application is using it" at weekly purge granularity.
    pub job_window: TimeDelta,
    /// Reservation-list handling (kept for parity with the other
    /// policies).
    pub honor_exemptions: bool,
}

impl ScratchCachePolicy {
    /// A scratch-as-cache policy keeping files touched within `job_window`.
    ///
    /// # Panics
    /// Panics if `job_window` is not positive.
    pub fn new(job_window: TimeDelta) -> Self {
        assert!(job_window.secs() > 0, "job window must be positive");
        ScratchCachePolicy {
            job_window,
            honor_exemptions: true,
        }
    }

    /// Shorthand for [`ScratchCachePolicy::new`] with a day count.
    pub fn days(days: u32) -> Self {
        ScratchCachePolicy::new(TimeDelta::from_days(i64::from(days)))
    }
}

impl Default for ScratchCachePolicy {
    fn default() -> Self {
        ScratchCachePolicy::days(7)
    }
}

impl RetentionPolicy for ScratchCachePolicy {
    fn name(&self) -> &'static str {
        "ScratchCache"
    }

    fn run(&self, request: PurgeRequest<'_>) -> RetentionOutcome {
        let mut outcome = RetentionOutcome {
            target_met: request.target_bytes.is_none(),
            ..Default::default()
        };
        for user_files in &request.catalog.users {
            for file in &user_files.files {
                if self.honor_exemptions && file.exempt {
                    outcome.exempt_skipped += 1;
                    continue;
                }
                if file.age(request.tc) > self.job_window {
                    outcome.purged.push(PurgedFile {
                        user: user_files.user,
                        id: file.id,
                        size: file.size,
                    });
                    outcome.purged_bytes += file.size;
                }
            }
        }
        if let Some(target) = request.target_bytes {
            outcome.target_met = outcome.purged_bytes >= target;
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activeness::ActivenessTable;
    use crate::files::{Catalog, FileId, FileRecord, UserFiles};
    use crate::policy::flt::FltPolicy;
    use crate::time::Timestamp;
    use crate::user::UserId;

    fn catalog() -> Catalog {
        Catalog::new(vec![UserFiles::new(
            UserId(1),
            vec![
                FileRecord::new(FileId(1), 10, Timestamp::from_days(99)), // 1d old
                FileRecord::new(FileId(2), 10, Timestamp::from_days(90)), // 10d old
                FileRecord::new(FileId(3), 10, Timestamp::from_days(40)), // 60d old
                FileRecord::new(FileId(4), 10, Timestamp::from_days(95)).exempt(),
            ],
        )])
    }

    #[test]
    fn evicts_everything_outside_the_job_window() {
        let c = catalog();
        let table = ActivenessTable::new();
        let out = ScratchCachePolicy::default().run(PurgeRequest {
            tc: Timestamp::from_days(100),
            catalog: &c,
            activeness: &table,
            target_bytes: None,
        });
        let ids: Vec<u64> = out.purged.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(out.exempt_skipped, 1);
        assert!(out.target_met);
    }

    #[test]
    fn always_purges_at_least_as_much_as_any_longer_flt() {
        let c = catalog();
        let table = ActivenessTable::new();
        let request = PurgeRequest {
            tc: Timestamp::from_days(100),
            catalog: &c,
            activeness: &table,
            target_bytes: None,
        };
        let cache = ScratchCachePolicy::default().run(request);
        let flt = FltPolicy::days(90).run(request);
        assert!(cache.purged_bytes >= flt.purged_bytes);
    }

    #[test]
    #[should_panic(expected = "job window must be positive")]
    fn zero_window_rejected() {
        ScratchCachePolicy::new(TimeDelta::ZERO);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(ScratchCachePolicy::default().name(), "ScratchCache");
    }
}
