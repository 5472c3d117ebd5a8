//! Assembling imported logs into a runnable [`TraceSet`].
//!
//! After parsing the individual log families ([`super::slurm`],
//! [`super::publications`], [`super::access_log`]), this stitches them
//! into the bundle the emulation engine consumes: pre-replay write
//! accesses become the initial file population (with atimes from the last
//! pre-replay access), and the replay stream keeps everything from the
//! replay window on.

#![allow(
    clippy::missing_panics_doc,
    reason = "asserts guard scenario invariants; every panic site is tracked by the xtask panic-freedom ratchet"
)]

use crate::records::{
    AccessKind, AccessRecord, FileSeed, JobRecord, PublicationRecord, TraceSet, UserProfile,
};
use crate::synth::Archetype;
use activedr_core::time::Timestamp;
use std::collections::HashMap;

use super::UserDirectory;

/// Inputs to the assembler. All streams use the shared [`UserDirectory`]
/// id space.
#[derive(Debug, Clone, Default)]
pub struct ImportBundle {
    pub jobs: Vec<JobRecord>,
    pub publications: Vec<PublicationRecord>,
    pub accesses: Vec<AccessRecord>,
}

/// Problems found while assembling (non-fatal; the bundle is still built).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssembleReport {
    /// Reads of paths never written before the replay window; the engine
    /// will count them as misses on first touch unless they appear in a
    /// metadata snapshot supplied separately.
    pub reads_of_unknown_paths: usize,
    /// Accesses dropped because they precede the earliest representable
    /// day (negative beyond the horizon guard).
    pub dropped_accesses: usize,
}

/// Build a [`TraceSet`] from imported logs.
///
/// * `replay_start_day` / `horizon_days` — the emulation window; accesses
///   before the window seed the initial file population, accesses at or
///   after it form the replay stream, accesses past the horizon are
///   dropped.
/// * Files are seeded from pre-replay **writes**; their `atime` is the
///   last pre-replay access of any kind.
pub fn assemble(
    users: &UserDirectory,
    bundle: ImportBundle,
    replay_start_day: u32,
    horizon_days: u32,
) -> (TraceSet, AssembleReport) {
    assert!(
        replay_start_day < horizon_days,
        "replay must fit in horizon"
    );
    let replay_start = Timestamp::from_days(i64::from(replay_start_day));
    let horizon = Timestamp::from_days(i64::from(horizon_days));

    // Ledger of pre-replay files: path -> (owner, size, created, atime).
    let mut ledger: HashMap<String, FileSeed> = HashMap::new();
    let mut replay: Vec<AccessRecord> = Vec::new();
    let mut report = AssembleReport {
        reads_of_unknown_paths: 0,
        dropped_accesses: 0,
    };

    for a in bundle.accesses {
        if a.ts >= horizon {
            report.dropped_accesses += 1;
            continue;
        }
        if a.ts >= replay_start {
            replay.push(a);
            continue;
        }
        match a.kind {
            AccessKind::Write { size } => {
                ledger
                    .entry(a.path.clone())
                    .and_modify(|f| {
                        f.size = size;
                        f.owner = a.user;
                        if a.ts > f.atime {
                            f.atime = a.ts;
                        }
                    })
                    .or_insert(FileSeed {
                        path: a.path,
                        owner: a.user,
                        size,
                        created: a.ts,
                        atime: a.ts,
                    });
            }
            AccessKind::Read => match ledger.get_mut(&a.path) {
                Some(f) => {
                    if a.ts > f.atime {
                        f.atime = a.ts;
                    }
                }
                None => report.reads_of_unknown_paths += 1,
            },
        }
    }

    let mut traces = TraceSet {
        horizon_days,
        replay_start_day,
        users: users
            .user_ids()
            .into_iter()
            .map(|id| UserProfile {
                id,
                archetype: Archetype::Unknown,
            })
            .collect(),
        initial_files: ledger.into_values().collect(),
        jobs: bundle.jobs,
        publications: bundle.publications,
        accesses: replay,
        ..Default::default()
    };
    traces.sort();
    (traces, report)
}

#[cfg(test)]
mod tests {
    use super::super::datetime::EpochDate;
    use super::super::{parse_access_log, parse_publications, parse_sacct};
    use super::*;

    #[test]
    fn full_import_pipeline_produces_a_runnable_bundle() {
        let mut users = UserDirectory::new();
        let jobs = parse_sacct(
            "JobID|User|Submit|Start|End|NCPUS|State\n\
             1|alice|2015-06-01T08:00:00|2015-06-01T08:01:00|2015-06-01T10:01:00|64|COMPLETED\n\
             2|alice|2016-02-01T08:00:00|2016-02-01T08:01:00|2016-02-01T10:01:00|64|COMPLETED\n"
                .as_bytes(),
            EpochDate::PAPER,
            &mut users,
        )
        .unwrap();
        let pubs = parse_publications(
            "2015-12-01,5,alice;bob\n".as_bytes(),
            EpochDate::PAPER,
            &mut users,
        )
        .unwrap();
        let accesses = parse_access_log(
            "2015-06-01T09:00:00 alice WRITE /scratch/alice/a.dat 1000\n\
             2015-08-01T09:00:00 alice READ /scratch/alice/a.dat\n\
             2015-09-01T09:00:00 bob READ /scratch/bob/never-written.dat\n\
             2016-02-01T09:00:00 alice READ /scratch/alice/a.dat\n\
             2016-02-01T10:00:00 alice WRITE /scratch/alice/b.dat 2000\n\
             2099-01-01T00:00:00 alice READ /scratch/alice/a.dat\n"
                .as_bytes(),
            EpochDate::PAPER,
            &mut users,
        )
        .unwrap();

        let (traces, report) = assemble(
            &users,
            ImportBundle {
                jobs: jobs.records,
                publications: pubs.records,
                accesses: accesses.records,
            },
            365,
            731,
        );

        assert!(traces.validate().is_empty(), "{:?}", traces.validate());
        assert_eq!(traces.users.len(), 2); // alice, bob
        assert!(traces
            .users
            .iter()
            .all(|u| u.archetype == Archetype::Unknown));

        // One pre-replay file, atime renewed by the August read.
        assert_eq!(traces.initial_files.len(), 1);
        let seed = &traces.initial_files[0];
        assert_eq!(seed.path, "/scratch/alice/a.dat");
        assert_eq!(seed.size, 1000);
        assert_eq!(
            seed.atime,
            Timestamp::from_days(212) + activedr_core::time::TimeDelta::from_hours(9)
        );

        // Replay keeps only the 2016 window; the 2099 access is dropped.
        assert_eq!(traces.accesses.len(), 2);
        assert_eq!(report.dropped_accesses, 1);
        assert_eq!(report.reads_of_unknown_paths, 1);

        // The bundle drives the engine's inputs: events extract cleanly.
        let registry = activedr_core::event::ActivityTypeRegistry::paper_default();
        let events = crate::events::activity_events(&traces, &registry, Timestamp::from_days(731));
        assert_eq!(events.len(), 2 + 2); // 2 jobs + 2 pub author slots
    }

    #[test]
    #[should_panic(expected = "replay must fit in horizon")]
    fn bad_window_rejected() {
        assemble(&UserDirectory::new(), ImportBundle::default(), 10, 10);
    }
}
