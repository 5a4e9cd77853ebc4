//! The benchmark's output: the host and run block, one text line per
//! metric (median, quartiles, sample count), and the final JSON line.

use crate::stats::{percentile, sorted, Spread};
use crate::Args;

/// End-to-end metric names, in output order, with their units. Every
/// workload reports all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
    ("accuracy", "ratio"),
    ("train_s", "s"),
    ("infer_wps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The server stages the per-layer block names; `Stats` is read by name,
/// so a stage that disappears shows as absent.
pub const SERVE_STAGES: [&str; 6] =
    ["decode", "queue_wait", "coalesce_wait", "encode", "score", "reply"];

/// Per-layer metric names with their units, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("client.sent", "count"),
        ("client.completed", "count"),
        ("client.failed", "count"),
        ("client.gen_late_p50_ms", "ms"),
        ("client.gen_late_p99_ms", "ms"),
        ("client.predict_p50_ms", "ms"),
        ("client.ingest_p50_ms", "ms"),
        ("client.predict_p99_ms", "ms"),
        ("client.ingest_p99_ms", "ms"),
        ("client.max_rate_rps", "1/s"),
        ("serve.cpu_us_per_req", "us"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for stage in SERVE_STAGES {
        v.push((format!("serve.{stage}.p50_us"), "us"));
        v.push((format!("serve.{stage}.mean_us"), "us"));
    }
    v.extend(
        [
            ("serve.queue_wait.p99_us", "us"),
            ("serve.overloaded", "count"),
            ("serve.batch_size", "count"),
            ("serve.ledger.unattributed_us", "us"),
            ("stream.adaptations", "count"),
            ("stream.sessions_evicted", "count"),
            ("stream.sessions_hydrated", "count"),
            ("stream.state_write_failures", "count"),
            ("stream.hydrate_per_evict", "ratio"),
            ("stream.enroll_ms", "ms"),
            ("stream.ingest_us", "us"),
            ("stream.resume_us", "us"),
            ("stream.suspend_us", "us"),
            ("stream.archive_write_us", "us"),
            ("core.base_predict_us", "us"),
            ("core.delta_predict_us", "us"),
            ("core.fit_s", "s"),
            ("core.fit_rest_s", "s"),
            ("core.quantize_ms", "ms"),
            ("core.artifact_load_ms", "ms"),
            ("packed.encode_p50_us", "us"),
            ("packed.encode_p99_us", "us"),
            ("hdc.encode_s", "s"),
            ("bench.trace_overhead_pct", "%"),
            ("bench.host_speed", "ratio"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

/// One measured metric: the reported value and the spread of the samples
/// a run made, or absent.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub spread: Option<Spread>,
    /// How the value was taken and over what (e.g. "median of 20 rounds").
    pub how: String,
}

/// A finished run, ready to print.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub violations: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Extra `key=value` facts for the run block (nominal rate, rounds…).
    pub run: Vec<(String, String)>,
}

impl Report {
    fn push(
        &mut self,
        name: &str,
        samples: &[f64],
        how: String,
        pick: impl Fn(&[f64]) -> Option<f64>,
    ) {
        let complete = !samples.is_empty() && samples.iter().all(|v| v.is_finite());
        let (value, spread) =
            if complete { (pick(&sorted(samples)), Spread::of(samples)) } else { (None, None) };
        self.metrics.push(Metric { name: name.into(), value, spread, how });
    }

    /// Records the median of a metric's samples (absent when there are
    /// none, or when one is infinite — a failed request's latency).
    pub fn add(&mut self, name: &str, samples: &[f64], over: &str) {
        self.push(name, samples, format!("median over {over}"), |s| percentile(s, 0.5));
    }

    /// Records a single-valued metric.
    pub fn one(&mut self, name: &str, value: Option<f64>, over: &str) {
        self.push(name, value.as_slice(), over.to_string(), |s| s.first().copied());
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.run.push((key.into(), value.to_string()));
    }

    fn find(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().rev().find(|m| m.name == name)
    }

    /// Fails the run for every end-to-end metric it did not measure: a
    /// gated figure that silently read 0 would look like the best result
    /// rather than a failed measurement.
    pub fn require_end_to_end(&mut self) {
        for (name, _) in END_TO_END {
            if self.find(name).and_then(|m| m.value).is_none() {
                self.correct = false;
                self.violations.push(format!("end-to-end metric {name} was not measured"));
            }
        }
    }

    pub fn print(&self, args: &Args) {
        let host = host_block();
        println!(
            "# perfbench workload={} seed={} seconds={} trace={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        let mut run = vec![
            ("workload".to_string(), args.workload.clone()),
            ("seed".into(), args.seed.to_string()),
            ("seconds".into(), args.seconds.to_string()),
            ("trace".into(), u8::from(args.trace).to_string()),
        ];
        run.extend(self.run.iter().cloned());
        println!("host {}", json_object(&host));
        println!("run {}", json_object(&run));
        for v in &self.violations {
            println!("CHECK FAILED: {v}");
        }
        let names: Vec<(String, &str)> = if args.trace {
            per_layer()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
        };
        let mut fields = Vec::new();
        for (name, unit) in &names {
            let value = match self.find(name).and_then(|m| Some((m, m.value?, m.spread?))) {
                Some((m, v, s)) => {
                    println!(
                        "metric {name} {} {unit} ({}; median={} q1={} q3={} n={})",
                        fmt(v),
                        m.how,
                        fmt(s.median),
                        fmt(s.q1),
                        fmt(s.q3),
                        s.n
                    );
                    v
                }
                None => {
                    println!("metric {name} absent {unit}");
                    0.0
                }
            };
            fields.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", fmt(value)));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// A float with all its measured digits (no rounding), JSON-safe.
fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

fn json_object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// CPU model, core count, toolchain, commit and thread override.
fn host_block() -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("cpu_model".into(), cpu),
        ("nproc".into(), nproc.to_string()),
        ("rustc".into(), rustc),
        ("commit".into(), git_commit().unwrap_or_else(|| "unknown".into())),
        ("smore_threads".into(), std::env::var("SMORE_THREADS").unwrap_or_else(|_| "unset".into())),
    ]
}

/// The checked-out commit, read from `.git` in the working directory
/// (a plain source tree has none).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            }),
        None => Some(head.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete() -> Report {
        let mut r = Report { correct: true, ..Report::default() };
        for (name, _) in END_TO_END {
            r.one(name, Some(1.0), "test");
        }
        r
    }

    #[test]
    fn a_complete_run_stays_correct() {
        let mut r = complete();
        r.require_end_to_end();
        assert!(r.correct && r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn a_missing_or_unmeasurable_end_to_end_metric_fails_the_run() {
        let mut r = complete();
        r.metrics.retain(|m| m.name != "train_s");
        r.add("setup_s", &[0.5, f64::INFINITY], "test");
        r.require_end_to_end();
        assert!(!r.correct);
        assert_eq!(r.violations.len(), 2, "{:?}", r.violations);
        assert!(r.violations.iter().any(|v| v.contains("train_s")));
        assert!(r.violations.iter().any(|v| v.contains("setup_s")));
    }
}
