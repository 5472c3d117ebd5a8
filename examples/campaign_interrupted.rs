//! The paper's motivating story (§1): a researcher's campaign is
//! interrupted — a field study, a teaching term, an administrative
//! suspension — and when they return, the fixed-lifetime purge has wiped
//! the files they need, while ActiveDR kept them because the user's
//! outcome record (publications) kept their activeness up.
//!
//! ```text
//! cargo run --example campaign_interrupted
//! ```

#![allow(
    clippy::unwrap_used,
    reason = "example code: unwrap keeps the walkthrough focused on the API"
)]

use activedr_core::prelude::*;
use activedr_fs::{ExemptionList, VirtualFs};

fn main() {
    // One researcher with a 120-day interruption, plus a horde of idle
    // accounts whose stale data dominates the scratch space.
    let researcher = UserId(0);
    let mut fs = VirtualFs::with_capacity(200 << 30);

    // Campaign phase one: the researcher collects 10 input files at day 0.
    for i in 0..10 {
        fs.create(
            &format!("/scratch/u0/campaign/input{i:02}.h5"),
            researcher,
            1 << 30,
            Timestamp::from_days(0),
        )
        .unwrap();
    }
    // Idle accounts with old data (the purge fodder).
    for u in 1..=50u32 {
        for i in 0..4 {
            fs.create(
                &format!("/scratch/u{u}/old/data{i}.dat"),
                UserId(u),
                2 << 30,
                Timestamp::from_days(-30),
            )
            .unwrap();
        }
    }

    // The researcher publishes at day 60 (outcome activity), then is away
    // until day 120. Retention runs at day 100 with a 90-day lifetime:
    // the campaign inputs are 100 days stale.
    let registry = ActivityTypeRegistry::paper_default();
    let publication = registry.lookup("publication").unwrap();
    let events = vec![ActivityEvent::new(
        researcher,
        publication,
        Timestamp::from_days(60),
        f64::from(12 + 1), // 12 citations, sole author (Eq. 8)
    )];
    let tc = Timestamp::from_days(100);
    let evaluator = ActivenessEvaluator::new(registry.clone(), ActivenessConfig::year_window(30));
    let users: Vec<UserId> = (0..=50).map(UserId).collect();
    let table = evaluator.evaluate(tc, &users, &events);
    println!(
        "researcher at day 100: op rank {}, outcome rank {} -> {}",
        table.get(researcher).op,
        table.get(researcher).oc,
        Quadrant::of(table.get(researcher))
    );

    let catalog = fs.catalog(&ExemptionList::new());
    // Purge target: free 100 GiB.
    let target = Some(100u64 << 30);

    // Under FLT every 90-day-stale file goes, the researcher's included.
    let flt = FltPolicy::days(90).run(PurgeRequest {
        tc,
        catalog: &catalog,
        activeness: &table,
        target_bytes: None,
    });
    let researcher_losses_flt = flt.purged.iter().filter(|p| p.user == researcher).count();

    // Under ActiveDR the target is met entirely from the idle accounts.
    let adr = ActiveDrPolicy::new(RetentionConfig::new(90)).run(PurgeRequest {
        tc,
        catalog: &catalog,
        activeness: &table,
        target_bytes: target,
    });
    let researcher_losses_adr = adr.purged.iter().filter(|p| p.user == researcher).count();

    println!("\nretention at day 100 (lifetime 90d):");
    println!(
        "  FLT:      purged {:>3} files, researcher lost {researcher_losses_flt}",
        flt.purged.len()
    );
    println!(
        "  ActiveDR: purged {:>3} files, researcher lost {researcher_losses_adr} (target met: {})",
        adr.purged.len(),
        adr.target_met
    );

    // Day 120: the researcher returns and opens the campaign inputs.
    let mut fs_flt = fs.clone();
    fs_flt.apply(&flt);
    let mut fs_adr = fs;
    fs_adr.apply(&adr);
    let mut misses_flt = 0;
    let mut misses_adr = 0;
    for i in 0..10 {
        let path = format!("/scratch/u0/campaign/input{i:02}.h5");
        if fs_flt.access(&path, Timestamp::from_days(120)).is_miss() {
            misses_flt += 1;
        }
        if fs_adr.access(&path, Timestamp::from_days(120)).is_miss() {
            misses_adr += 1;
        }
    }
    println!("\nday 120, the researcher returns to 10 campaign inputs:");
    println!("  FLT:      {misses_flt}/10 file misses — the campaign must re-transfer its data");
    println!("  ActiveDR: {misses_adr}/10 file misses");
}
