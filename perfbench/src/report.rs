//! Statistics over a run's samples and the result line the benchmark
//! prints last.

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in (0, 1].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Distance between the first and third quartile as a share of the
/// median, with quartiles computed as Python's
/// `statistics.quantiles(values, n=4)` computes them.
pub fn spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Metrics and notes of one run, printed as `name value unit` lines
/// followed by the JSON result line.
pub struct Output {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Output {
    pub fn new(attempted: u64, failed: u64) -> Output {
        Output {
            attempted,
            failed,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Report the median of `samples`, noting their count and in-run
    /// spread.
    pub fn timing(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        self.metric(name, median(samples), unit);
        self.note(format!(
            "{name}: median of {} samples, in-run spread {:.1} %, min {:.4}, max {:.4}",
            samples.len(),
            100.0 * spread(samples),
            samples.iter().copied().fold(f64::INFINITY, f64::min),
            samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        ));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<28} {value:>16.4} {unit}");
        }
        // A value that is not a finite number is a defect of the run,
        // not a measurement.
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            finite && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
