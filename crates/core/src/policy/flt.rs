//! The fixed-lifetime (FLT) retention baseline (§1, §2, Table 1).
//!
//! FLT is the policy in production at essentially every HPC facility: a
//! periodic scan purges any file whose `atime` is older than a fixed
//! lifetime, "in the order specified by the system" — here, catalog order.
//! FLT is file-centric: it never looks at who owns a file or what that user
//! has been doing.

use super::{PurgeRequest, PurgedFile, RetentionOutcome, RetentionPolicy};
use crate::config::Facility;
use crate::time::TimeDelta;

/// Fixed-lifetime purge policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FltPolicy {
    /// The fixed file lifetime (Table 1: 30-120 days depending on site).
    pub lifetime: TimeDelta,
    /// Whether the reservation list is honoured. Production FLT deployments
    /// usually support exemptions, so this defaults to `true`.
    pub honor_exemptions: bool,
    /// When `true` and the request carries a byte target, stop purging once
    /// the target is met (useful for equal-target comparisons). The paper's
    /// FLT is unbounded: it purges *every* stale file.
    pub bounded_by_target: bool,
}

impl FltPolicy {
    /// A fixed-lifetime policy purging files older than `lifetime`.
    ///
    /// # Panics
    /// Panics if `lifetime` is not positive.
    pub fn new(lifetime: TimeDelta) -> Self {
        assert!(lifetime.secs() > 0, "lifetime must be positive");
        FltPolicy {
            lifetime,
            honor_exemptions: true,
            bounded_by_target: false,
        }
    }

    /// Shorthand for [`FltPolicy::new`] with a day count.
    pub fn days(lifetime_days: u32) -> Self {
        FltPolicy::new(TimeDelta::from_days(i64::from(lifetime_days)))
    }

    /// The preset a given facility runs (Table 1).
    pub fn facility(f: Facility) -> Self {
        FltPolicy::new(f.lifetime())
    }

    /// Stop purging once the byte target is met.
    pub fn bounded(mut self) -> Self {
        self.bounded_by_target = true;
        self
    }

    /// Purge exempt files too (ablation hook).
    pub fn ignoring_exemptions(mut self) -> Self {
        self.honor_exemptions = false;
        self
    }

    /// Is a file with the given age stale under this policy?
    pub fn is_stale(&self, age: TimeDelta) -> bool {
        age > self.lifetime
    }
}

impl RetentionPolicy for FltPolicy {
    fn name(&self) -> &'static str {
        "FLT"
    }

    fn run(&self, request: PurgeRequest<'_>) -> RetentionOutcome {
        let mut outcome = RetentionOutcome {
            target_met: request.target_bytes.is_none(),
            ..Default::default()
        };
        'scan: for user_files in &request.catalog.users {
            for file in &user_files.files {
                if self.honor_exemptions && file.exempt {
                    outcome.exempt_skipped += 1;
                    continue;
                }
                if self.is_stale(request.tc.age_since(file.atime)) {
                    outcome.purged.push(PurgedFile {
                        user: user_files.user,
                        id: file.id,
                        size: file.size,
                    });
                    outcome.purged_bytes += file.size;
                    if let Some(target) = request.target_bytes {
                        if outcome.purged_bytes >= target {
                            outcome.target_met = true;
                            if self.bounded_by_target {
                                break 'scan;
                            }
                        }
                    }
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activeness::ActivenessTable;
    use crate::files::{Catalog, FileId, FileRecord, UserFiles};
    use crate::time::Timestamp;
    use crate::user::UserId;

    fn catalog() -> Catalog {
        // t_c will be day 100. Ages: f1 = 95d (stale at 90), f2 = 10d,
        // f3 = 95d exempt, f4 = 200d.
        Catalog::new(vec![
            UserFiles::new(
                UserId(1),
                vec![
                    FileRecord::new(FileId(1), 100, Timestamp::from_days(5)),
                    FileRecord::new(FileId(2), 50, Timestamp::from_days(90)),
                ],
            ),
            UserFiles::new(
                UserId(2),
                vec![
                    FileRecord::new(FileId(3), 70, Timestamp::from_days(5)).exempt(),
                    FileRecord::new(FileId(4), 30, Timestamp::from_days(-100)),
                ],
            ),
        ])
    }

    fn request<'a>(catalog: &'a Catalog, table: &'a ActivenessTable) -> PurgeRequest<'a> {
        PurgeRequest {
            tc: Timestamp::from_days(100),
            catalog,
            activeness: table,
            target_bytes: None,
        }
    }

    #[test]
    fn purges_exactly_the_stale_nonexempt_set() {
        let c = catalog();
        let t = ActivenessTable::new();
        let out = FltPolicy::days(90).run(request(&c, &t));
        let ids: Vec<u64> = out.purged.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![1, 4]);
        assert_eq!(out.purged_bytes, 130);
        assert_eq!(out.exempt_skipped, 1);
        assert!(out.target_met);
        assert!(out.group_scans.is_empty());
    }

    #[test]
    fn boundary_age_is_retained() {
        // Age exactly == lifetime is NOT stale (strict inequality, Eq. 7's
        // `t_c − atime > ε_f` applied with Φ = 1).
        let c = Catalog::new(vec![UserFiles::new(
            UserId(1),
            vec![FileRecord::new(FileId(1), 10, Timestamp::from_days(10))],
        )]);
        let t = ActivenessTable::new();
        let req = PurgeRequest {
            tc: Timestamp::from_days(100),
            catalog: &c,
            activeness: &t,
            target_bytes: None,
        };
        let out = FltPolicy::days(90).run(req);
        assert!(out.purged.is_empty());
    }

    #[test]
    fn exemptions_can_be_disabled() {
        let c = catalog();
        let t = ActivenessTable::new();
        let out = FltPolicy::days(90)
            .ignoring_exemptions()
            .run(request(&c, &t));
        let ids: Vec<u64> = out.purged.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![1, 3, 4]);
        assert_eq!(out.exempt_skipped, 0);
    }

    #[test]
    fn bounded_variant_stops_at_target() {
        let c = catalog();
        let t = ActivenessTable::new();
        let mut req = request(&c, &t);
        req.target_bytes = Some(100);
        let out = FltPolicy::days(90).bounded().run(req);
        assert_eq!(out.purged.len(), 1);
        assert_eq!(out.purged_bytes, 100);
        assert!(out.target_met);
    }

    #[test]
    fn unbounded_variant_reports_target_status_but_keeps_purging() {
        let c = catalog();
        let t = ActivenessTable::new();
        let mut req = request(&c, &t);
        req.target_bytes = Some(100);
        let out = FltPolicy::days(90).run(req);
        assert_eq!(out.purged.len(), 2); // purged everything stale anyway
        assert!(out.target_met);

        req.target_bytes = Some(10_000);
        let out = FltPolicy::days(90).run(req);
        assert!(!out.target_met); // couldn't free that much
    }

    #[test]
    fn facility_presets() {
        assert_eq!(
            FltPolicy::facility(Facility::Tacc).lifetime,
            TimeDelta::from_days(30)
        );
        assert_eq!(FltPolicy::days(90).name(), "FLT");
    }

    #[test]
    #[should_panic(expected = "lifetime must be positive")]
    fn zero_lifetime_rejected() {
        FltPolicy::new(TimeDelta::ZERO);
    }
}
