//! Paper-scale replay benchmark for the ActiveDR emulator.
//!
//! One process, one thread, closed loop: each operation starts when the
//! previous one has finished. A timing run takes several paper-scale
//! worlds (`Scenario::build(Scale::Paper, seed)`) and, pass after pass
//! until `--seconds` have gone, builds each one and replays its full
//! 365-day window with one policy cell, checking every result. The last
//! line of standard output is one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end numbers a user sees
//! (set-up time, replay time, trigger latency, peak memory, miss ratio).
//! With `--trace 1` they are per-layer numbers from a traced run: timed
//! calls into `trace` and `fs` during set-up, per-trigger phases from
//! `SimResult`, and the engine's existing telemetry counters. See
//! `README.md` beside this crate for what each metric means.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-activedr --seed 42 --seconds 35 --trace 0
//! ```

mod report;
mod spans;

use activedr_fs::storage::wal::WAL_FILE;
use activedr_fs::VirtualFs;
use activedr_oracle::exec::digest_result;
use activedr_sim::engine::RetentionEvent;
use activedr_sim::{
    build_initial_fs, pre_purge_flt, run, run_with_telemetry, CatalogMode, DurabilityConfig,
    FsyncPolicy, Scale, Scenario, SimConfig, SimResult, Telemetry, TelemetryReport,
};
use activedr_trace::generate;
use report::{median, percentile, spread, Output};
use spans::SpanLog;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Paper-scale worlds per timing run. One world's miss ratio and
/// catalog work vary by about 10 % from seed to seed; pooling six keeps
/// that spread between runs near 4 %.
const WORLDS: u64 = 6;
/// The top trigger-latency percentile reported.
const TOP_PERCENTILE: f64 = 0.9;
/// Fewest pooled trigger samples that must lie above the reported top
/// percentile, so p90 rests on at least 100 samples.
const MIN_SAMPLES_ABOVE_TOP: usize = 10;
/// The paper's file lifetime (and activeness period) for every workload.
const LIFETIME_DAYS: u32 = 90;
/// Lifetime of the FLT pass `Scenario::build` applies before replay.
const PRE_PURGE_DAYS: u32 = 90;
/// Where durable replays keep their WAL directories, relative to the
/// directory the benchmark runs in.
const WORK_DIR: &str = ".perfbench_work";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// ActiveDR with the full-scan catalog: the reference run.
    Activedr,
    /// FLT over the same world: the paper's baseline, no ranking.
    Flt,
    /// ActiveDR with the incremental, write-ahead-logged catalog.
    Durable,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-activedr" => Some(Workload::Activedr),
            "paper-flt" => Some(Workload::Flt),
            "paper-durable" => Some(Workload::Durable),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Activedr => "paper-activedr",
            Workload::Flt => "paper-flt",
            Workload::Durable => "paper-durable",
        }
    }

    /// The in-memory part of the workload's configuration; a durable
    /// replay adds its own fresh WAL directory on top.
    fn config(self) -> SimConfig {
        match self {
            Workload::Activedr => SimConfig::activedr(LIFETIME_DAYS),
            Workload::Flt => SimConfig::flt(LIFETIME_DAYS),
            Workload::Durable => {
                SimConfig::activedr(LIFETIME_DAYS).with_catalog_mode(CatalogMode::Incremental)
            }
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    fsync: FsyncPolicy,
    checkpoint_every: u32,
}

const USAGE: &str = "usage: perfbench --workload <paper-activedr|paper-flt|paper-durable> \
[--seed N] [--seconds S] [--trace 0|1] [--fsync never|always] [--checkpoint-every N]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut fsync = FsyncPolicy::Never;
    let mut checkpoint_every = 4;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(seconds >= 0.0 && f64::is_finite(seconds)) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--fsync" => {
                fsync = match value.as_str() {
                    "never" => FsyncPolicy::Never,
                    "always" => FsyncPolicy::Always,
                    _ => return Err(bad("fsync policy")),
                }
            }
            "--checkpoint-every" => {
                checkpoint_every = value.parse().map_err(|_| bad("checkpoint cadence"))?;
                if checkpoint_every == 0 {
                    return Err(bad("checkpoint cadence"));
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        fsync,
        checkpoint_every,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fsync = match args.fsync {
        FsyncPolicy::Never => "never",
        FsyncPolicy::Always => "always",
    };
    println!(
        "perfbench workload={} seed={} scale=paper lifetime_days={LIFETIME_DAYS} trace={} \
         fsync={fsync} checkpoint_every={} seconds={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.checkpoint_every,
        args.seconds,
    );
    let mut bench = Bench::new(args);
    let result = if bench.args.trace {
        bench.traced()
    } else {
        bench.timed()
    };
    bench.cleanup();
    match result {
        Ok(out) => {
            out.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One timed replay and what it produced.
struct Replay {
    wall: Duration,
    result: SimResult,
}

impl Replay {
    /// Per-trigger latency in ms: the four Fig. 12 phases of each fired
    /// trigger, as the engine recorded them.
    fn trigger_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.result
            .retentions
            .iter()
            .map(|r| ms_from_micros(trigger_micros(r)))
    }

    /// Replay time outside the trigger phases, in ms.
    fn between_triggers_ms(&self) -> f64 {
        let phases: u64 = self.result.retentions.iter().map(trigger_micros).sum();
        ms(self.wall) - ms_from_micros(phases)
    }
}

fn trigger_micros(r: &RetentionEvent) -> u64 {
    r.eval_micros + r.scan_micros + r.decision_micros + r.apply_micros
}

/// The seeds of a run's worlds. The first is `--seed` itself, so seed 42
/// starts from the reference world of `activedr simulate --scale paper`;
/// the others are hashed from it. (Plain offsets would not do: the
/// synthesizer seeds SplitMix64, and seeds a golden-ratio step apart give
/// overlapping random streams.)
fn world_seeds(seed: u64, worlds: u64) -> Vec<u64> {
    let mix = |mut z: u64| {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..worlds)
        .map(|i| if i == 0 { seed } else { mix(seed ^ mix(i)) })
        .collect()
}

struct Bench {
    args: Args,
    start: Instant,
    work_dir: PathBuf,
    wal_dirs_made: usize,
    attempted: u64,
    failed: u64,
    /// Per world, the digest every replay of it must reproduce.
    references: Vec<Option<String>>,
    /// This thread's `(cpu_ns, runqueue_wait_ns)` when the run began.
    schedstat_start: Option<(u64, u64)>,
}

impl Bench {
    fn new(args: Args) -> Bench {
        Bench {
            args,
            start: Instant::now(),
            work_dir: PathBuf::from(WORK_DIR),
            wal_dirs_made: 0,
            attempted: 0,
            failed: 0,
            references: Vec::new(),
            schedstat_start: schedstat(),
        }
    }

    /// Count one operation; a failed check counts it as failed and is
    /// reported on standard error, never turned into a number.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Whether another pass taking `last` would end the run nearer to
    /// `--seconds` than stopping now would.
    fn another_pass(&self, last: Duration) -> bool {
        (self.start.elapsed() + last / 2).as_secs_f64() <= self.args.seconds
    }

    /// Build world `seed` as `Scenario::build` does, timed, plus the clone
    /// the replay consumes.
    fn setup(&mut self, seed: u64) -> (Scenario, VirtualFs, Duration) {
        let start = Instant::now();
        let scenario = Scenario::build(Scale::Paper, seed);
        let fs = scenario.initial_fs.clone();
        let took = start.elapsed();
        self.attempted += 1;
        (scenario, fs, took)
    }

    /// Replay world `world` once from `fs`. A durable replay gets a fresh
    /// WAL directory, checks that the engine wrote a log and a checkpoint
    /// there, and removes it afterwards. Every result is checked against
    /// the world's reference digest.
    fn replay(
        &mut self,
        world: usize,
        scenario: &Scenario,
        fs: VirtualFs,
        tele: Option<&Telemetry>,
    ) -> Result<Replay, String> {
        let mut config = self.args.workload.config();
        let wal_dir = (self.args.workload == Workload::Durable).then(|| {
            self.wal_dirs_made += 1;
            self.work_dir
                .join(format!("wal-{}-{}", std::process::id(), self.wal_dirs_made))
        });
        if let Some(dir) = &wal_dir {
            remove_dir(dir)?;
            config = config.with_durability(
                DurabilityConfig::new(dir)
                    .with_fsync(self.args.fsync)
                    .with_checkpoint_every(self.args.checkpoint_every),
            );
        }
        let start = Instant::now();
        let result = match tele {
            None => run(&scenario.traces, fs, &config),
            Some(tele) => run_with_telemetry(&scenario.traces, fs, &config, tele).0,
        };
        let wall = start.elapsed();
        if let Some(dir) = &wal_dir {
            let (wal, checkpoints) = durable_files(dir);
            self.check(wal && checkpoints > 0, || {
                format!(
                    "{} holds {WAL_FILE}: {wal}, checkpoints: {checkpoints}",
                    dir.display()
                )
            });
            remove_dir(dir)?;
        }
        let digest = digest_result(&result);
        if self.references.len() <= world {
            self.references.resize(world + 1, None);
        }
        let reference = match self.references[world].take() {
            Some(reference) => reference,
            None => self.reference_digest(scenario, digest.clone()),
        };
        let same = digest == reference;
        self.check(same, || {
            format!("replay of world {world} differs from its reference result")
        });
        self.references[world] = Some(reference);
        Ok(Replay { wall, result })
    }

    /// The digest every replay of a world must reproduce: its first
    /// replay's own, or for the durable workload that of an in-memory
    /// full-scan ActiveDR replay, since durability must not change a
    /// single decision.
    fn reference_digest(&self, scenario: &Scenario, first: String) -> String {
        if self.args.workload != Workload::Durable {
            return first;
        }
        let reference = run(
            &scenario.traces,
            scenario.initial_fs.clone(),
            &Workload::Activedr.config(),
        );
        digest_result(&reference)
    }

    /// Timing mode: every end-to-end metric, with tracing off. A pass
    /// builds and replays each of the run's worlds in turn, so set-up
    /// and replay samples are spread over the whole run; passes repeat
    /// until `--seconds` are used.
    fn timed(&mut self) -> Result<Output, String> {
        let seeds = world_seeds(self.args.seed, WORLDS);
        let mut setup_s = Vec::new();
        let mut replay_s = Vec::new();
        let mut samples: Vec<f64> = Vec::new();
        let mut rss_mib = Vec::new();
        let (mut misses, mut reads) = (0u64, 0u64);
        let mut passes = 0;
        let mut last = Duration::ZERO;
        while passes == 0
            || samples.len() < enough_samples(TOP_PERCENTILE)
            || self.another_pass(last)
        {
            let pass = Instant::now();
            for (world, &seed) in seeds.iter().enumerate() {
                reset_peak_rss();
                let (scenario, fs, took) = self.setup(seed);
                setup_s.push(took.as_secs_f64());
                let shape = Shape::of(&scenario.initial_fs);
                let replay = self.replay(world, &scenario, fs, None)?;
                drop(scenario);
                rss_mib.push(peak_rss_mib().ok_or("VmHWM missing from /proc/self/status")?);
                if passes == 0 {
                    misses += replay.result.total_misses();
                    reads += replay.result.total_reads();
                }
                if passes == 0 && world == 0 {
                    let composed = ComposedSetup::build(seed, &mut SpanLog::new(), None)
                        .0
                        .shape;
                    self.check(composed == shape, || {
                        format!("composed set-up of seed {seed} is {composed:?}, Scenario::build {shape:?}")
                    });
                }
                replay_s.push(replay.wall.as_secs_f64());
                samples.extend(replay.trigger_ms());
            }
            passes += 1;
            last = pass.elapsed();
        }
        if reads == 0 {
            return Err("the replays made no reads".into());
        }

        let mut out = Output::new(self.attempted, self.failed);
        out.note(format!(
            "worlds: seeds {seeds:?}, {passes} pass(es), each world built and replayed once per pass"
        ));
        out.timing("setup_s", &setup_s, "s");
        out.timing("replay_s", &replay_s, "s");
        let p50 = percentile(&samples, 0.5);
        let p90 = percentile(&samples, TOP_PERCENTILE);
        out.metric("trigger_ms.p50", p50, "ms");
        out.metric("trigger_ms.p90", p90, "ms");
        out.note(format!(
            "trigger_ms: {} samples pooled over {} replays, {} above p90",
            samples.len(),
            replay_s.len(),
            samples.iter().filter(|&&s| s > p90).count()
        ));
        out.timing("peak_rss_mib", &rss_mib, "MiB");
        out.metric("miss_ratio", to_f64(misses) / to_f64(reads), "ratio");
        out.note(format!(
            "miss_ratio: {misses} misses / {reads} reads over {} worlds",
            seeds.len()
        ));
        out.note(self.sched_note());
        Ok(out)
    }

    /// Traced mode: per-layer numbers for the `--seed` world. Each pass
    /// builds it from its four public calls, each timed, then replays it
    /// once untraced and once with telemetry on, so that
    /// `obs.traced_replay_ratio` compares like with like.
    fn traced(&mut self) -> Result<Output, String> {
        let seed = self.args.seed;
        let built = Shape::of(&Scenario::build(Scale::Paper, seed).initial_fs);
        let mut log = SpanLog::new();
        let run_span = log.open("perfbench", None);
        let mut setups = Vec::new();
        let mut untraced: Vec<Replay> = Vec::new();
        let mut traced: Vec<(Replay, TelemetryReport)> = Vec::new();
        let mut last = Duration::ZERO;
        while traced.is_empty() || self.another_pass(last) {
            let pass = Instant::now();
            let span = log.open("setup", Some(run_span));
            let (setup, scenario, fs) = ComposedSetup::build(seed, &mut log, Some(span));
            log.close(span);
            self.check(setup.shape == built, || {
                format!(
                    "composed set-up is {:?}, Scenario::build {built:?}",
                    setup.shape
                )
            });
            setups.push(setup);

            let span = log.open("replay", Some(run_span));
            let replay = self.replay(0, &scenario, scenario.initial_fs.clone(), None)?;
            log.close(span);
            untraced.push(replay);

            let tele = Telemetry::on();
            let span = log.open("replay.traced", Some(run_span));
            let replay = self.replay(0, &scenario, fs, Some(&tele))?;
            log.close(span);
            log.phases(span, &replay.result);
            let report = tele.report();
            self.check_counters(&scenario, &replay, &report);
            traced.push((replay, report));
            last = pass.elapsed();
        }
        log.close(run_span);

        let setup_ms = |f: fn(&ComposedSetup) -> Duration| {
            median(&setups.iter().map(|s| ms(f(s))).collect::<Vec<_>>())
        };
        let phase_ms = |f: fn(&RetentionEvent) -> u64| {
            let sums: Vec<f64> = traced
                .iter()
                .map(|(r, _)| ms_from_micros(r.result.retentions.iter().map(f).sum()))
                .collect();
            median(&sums)
        };
        let (last, report) = traced.last().ok_or("no traced replay ran")?;
        let retentions = &last.result.retentions;
        let counter = |name: &str| {
            report
                .counter(name)
                .map(to_f64)
                .ok_or(format!("telemetry has no `{name}` counter"))
        };
        let walked: u64 = retentions
            .iter()
            .flat_map(|r| r.breakdown.by_quadrant.iter())
            .map(|q| q.purged_files + q.retained_files)
            .sum();
        let scan_micros: u64 = retentions.iter().map(|r| r.scan_micros).sum();
        let passes: u64 = retentions
            .iter()
            .flat_map(|r| &r.group_scans)
            .map(|g| u64::from(g.passes))
            .sum();
        let fired = counter("retention.triggers_fired")?;
        let skipped = counter("retention.triggers_skipped")?;
        let fallbacks = counter("catalog.scan_fallbacks")?;
        // Every incremental trigger that did not fall back to a walk
        // flushed the delta buffer into the index; so did every forced
        // end-of-day flush. A full-scan replay has no index.
        let flushes = match self.args.workload.config().catalog_mode {
            CatalogMode::Incremental => {
                fired + skipped - fallbacks + counter("catalog.forced_flushes")?
            }
            CatalogMode::FullScan => 0.0,
        };
        let checkpoint_ms = report
            .histograms
            .iter()
            .find(|h| h.name == "checkpoint.duration_micros")
            .map_or(0.0, |h| ms_from_micros(h.sum));
        let between: Vec<f64> = traced
            .iter()
            .map(|(r, _)| r.between_triggers_ms())
            .collect();
        let traced_s: Vec<f64> = traced.iter().map(|(r, _)| r.wall.as_secs_f64()).collect();
        let untraced_s: Vec<f64> = untraced.iter().map(|r| r.wall.as_secs_f64()).collect();

        let mut out = Output::new(self.attempted, self.failed);
        out.metric("trace.generate_ms", setup_ms(|s| s.generate), "ms");
        out.metric("fs.build_initial_ms", setup_ms(|s| s.build_initial), "ms");
        out.metric("fs.pre_purge_ms", setup_ms(|s| s.pre_purge), "ms");
        out.metric("fs.clone_ms", setup_ms(|s| s.clone), "ms");
        out.metric("fs.initial_files", to_f64(built.files as u64), "count");
        out.metric("fs.catalog_ms.sum", phase_ms(|e| e.scan_micros), "ms");
        let per_file = if walked == 0 {
            0.0
        } else {
            to_f64(scan_micros) * 1e3 / to_f64(walked)
        };
        out.metric("fs.catalog_ns_per_file", per_file, "ns");
        out.metric("core.decide_ms.sum", phase_ms(|e| e.decision_micros), "ms");
        out.metric("core.group_scans", to_f64(passes), "count");
        out.metric("core.evaluate_ms.sum", phase_ms(|e| e.eval_micros), "ms");
        out.metric("fs.apply_ms.sum", phase_ms(|e| e.apply_micros), "ms");
        out.metric(
            "fs.purged_files",
            counter("retention.purged_files")?,
            "count",
        );
        out.metric("sim.between_triggers_ms", median(&between), "ms");
        out.metric("sim.triggers_fired", fired, "count");
        out.metric("sim.triggers_skipped", skipped, "count");
        out.metric("sim.reads", counter("replay.reads")?, "count");
        out.metric("sim.misses", counter("replay.misses")?, "count");
        out.metric(
            "sim.restages",
            counter("recovery.restages_completed")?,
            "count",
        );
        out.metric("index.scan_fallbacks", fallbacks, "count");
        out.metric("index.flushes", flushes, "count");
        out.metric("storage.wal_appends", counter("wal.appends")?, "count");
        out.metric("storage.wal_bytes", counter("wal.bytes")?, "bytes");
        out.metric(
            "storage.checkpoints",
            counter("checkpoint.writes")?,
            "count",
        );
        out.metric(
            "storage.checkpoint_bytes",
            counter("checkpoint.bytes")?,
            "bytes",
        );
        out.metric("storage.checkpoint_ms.sum", checkpoint_ms, "ms");
        out.metric("sched.runqueue_wait_ms", self.sched_ms().1, "ms");
        out.metric(
            "obs.traced_replay_ratio",
            median(&traced_s) / median(&untraced_s),
            "ratio",
        );
        out.note(format!(
            "replays of seed {seed}: {} untraced, median {:.4} s, in-run spread {:.1} %; \
             {} traced, median {:.4} s",
            untraced_s.len(),
            median(&untraced_s),
            100.0 * spread(&untraced_s),
            traced_s.len(),
            median(&traced_s)
        ));
        out.note(self.sched_note());
        let path = self.work_dir.join(format!(
            "spans-{}-seed{seed}.jsonl",
            self.args.workload.name()
        ));
        std::fs::create_dir_all(&self.work_dir).map_err(|e| e.to_string())?;
        std::fs::write(&path, log.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        out.note(format!("spans written to {}", path.display()));
        Ok(out)
    }

    /// Traced-run checks: the telemetry counters must agree with the
    /// public result and with the trigger schedule.
    fn check_counters(&mut self, scenario: &Scenario, replay: &Replay, report: &TelemetryReport) {
        let traces = &scenario.traces;
        let days = i64::from(traces.horizon_days) - i64::from(traces.replay_start_day);
        let interval = i64::from(self.args.workload.config().purge_interval_days);
        // Triggers fall on every interval-th day after the replay starts.
        let scheduled = u64::try_from((days - 1) / interval).unwrap_or(0);
        let fired = report.counter("retention.triggers_fired");
        let skipped = report.counter("retention.triggers_skipped");
        let events = replay.result.retentions.len() as u64;
        self.check(
            fired == Some(events) && skipped.map(|s| s + events) == Some(scheduled),
            || {
                format!(
                    "{fired:?} fired + {skipped:?} skipped vs {scheduled} scheduled \
                     triggers and {events} events"
                )
            },
        );
        let purged: u64 = replay
            .result
            .retentions
            .iter()
            .map(|r| r.purged_files)
            .sum();
        let counted = report.counter("retention.purged_files");
        self.check(counted == Some(purged), || {
            format!("retention.purged_files {counted:?} vs {purged} in the result")
        });
    }

    /// This thread's `(cpu, run-queue wait)` since the run began, in ms.
    fn sched_ms(&self) -> (f64, f64) {
        match (self.schedstat_start, schedstat()) {
            (Some((cpu0, wait0)), Some((cpu, wait))) => (
                to_f64(cpu.saturating_sub(cpu0)) / 1e6,
                to_f64(wait.saturating_sub(wait0)) / 1e6,
            ),
            _ => (0.0, 0.0),
        }
    }

    /// Noise evidence: a thread that was on a CPU for nearly all of the
    /// wall time and barely waited for one was slowed, if at all, by the
    /// host it shares, not by this machine's scheduler.
    fn sched_note(&self) -> String {
        let (cpu, wait) = self.sched_ms();
        let wall = ms(self.start.elapsed());
        format!(
            "sched: wall {wall:.0} ms, thread cpu {cpu:.0} ms ({:.1} %), run-queue wait {wait:.3} ms",
            100.0 * cpu / wall
        )
    }

    /// Remove the work directory if nothing else lives there. Span files
    /// of a traced run are kept.
    fn cleanup(&self) {
        let _ = std::fs::remove_dir(&self.work_dir);
    }
}

/// The four public calls `Scenario::build` is made of, plus the clone
/// each replay starts from, each timed on its own.
struct ComposedSetup {
    generate: Duration,
    build_initial: Duration,
    pre_purge: Duration,
    clone: Duration,
    shape: Shape,
}

/// What the composed set-up must share with `Scenario::build`.
#[derive(Debug, PartialEq, Eq)]
struct Shape {
    files: usize,
    used_bytes: u64,
    capacity: u64,
}

impl Shape {
    fn of(fs: &VirtualFs) -> Shape {
        Shape {
            files: fs.file_count(),
            used_bytes: fs.used_bytes(),
            capacity: fs.capacity(),
        }
    }
}

impl ComposedSetup {
    /// Assemble world `seed`, timing each call under a span of `parent`.
    /// Returns the timings, the world, and the clone a replay consumes.
    fn build(
        seed: u64,
        log: &mut SpanLog,
        parent: Option<usize>,
    ) -> (ComposedSetup, Scenario, VirtualFs) {
        let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
            let span = log.open(name, parent);
            let start = Instant::now();
            f();
            let took = start.elapsed();
            log.close(span);
            took
        };
        let mut traces = None;
        let generate = timed("trace.generate", &mut || {
            traces = Some(generate(&Scale::Paper.synth_config(seed)));
        });
        let traces = traces.expect("generate ran");
        let mut fs = None;
        let build_initial = timed("fs.build_initial", &mut || {
            fs = Some(build_initial_fs(&traces));
        });
        let mut fs = fs.expect("build_initial_fs ran");
        let pre_purge = timed("fs.pre_purge", &mut || {
            pre_purge_flt(&mut fs, traces.replay_start(), PRE_PURGE_DAYS);
            fs.set_capacity(fs.used_bytes());
        });
        let mut copy = None;
        let clone = timed("fs.clone", &mut || copy = Some(fs.clone()));
        let setup = ComposedSetup {
            generate,
            build_initial,
            pre_purge,
            clone,
            shape: Shape::of(&fs),
        };
        let scenario = Scenario {
            traces,
            initial_fs: fs,
            seed,
            scale: Scale::Paper,
        };
        (setup, scenario, copy.expect("clone ran"))
    }
}

/// Pooled trigger samples needed so that at least
/// [`MIN_SAMPLES_ABOVE_TOP`] lie above percentile `top`.
fn enough_samples(top: f64) -> usize {
    (MIN_SAMPLES_ABOVE_TOP as f64 / (1.0 - top)).round() as usize
}

/// Whether `dir` holds a WAL file, and how many checkpoints.
fn durable_files(dir: &Path) -> (bool, usize) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (false, 0);
    };
    let names: Vec<String> = entries
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    let wal = names.iter().any(|n| n == WAL_FILE);
    let checkpoints = names
        .iter()
        .filter(|n| n.starts_with("checkpoint-") && n.ends_with(".ckpt"))
        .count();
    (wal, checkpoints)
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove {}: {e}", dir.display())),
    }
}

/// Restart the kernel's peak-RSS count at the current RSS, so that each
/// world's set-up and replay get a peak of their own. Where the kernel
/// refuses, the peak stays the process-wide one.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// This thread's time on a CPU and time runnable but waiting for one, in
/// ns (first two fields of `/proc/thread-self/schedstat`).
fn schedstat() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = stat.split_whitespace().map(str::parse::<u64>);
    Some((fields.next()?.ok()?, fields.next()?.ok()?))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ms_from_micros(micros: u64) -> f64 {
    to_f64(micros) / 1e3
}

/// Counts in this benchmark stay far below 2^53, so the conversion is
/// exact.
fn to_f64(n: u64) -> f64 {
    n as f64
}
