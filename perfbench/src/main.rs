//! `perfbench` — the repository's benchmark: open-loop serving, online
//! adaptation and offline training/inference of SMORE, with a traced
//! per-layer run. Run it through the launcher, which builds it and the
//! `smore_serve` binary first:
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`); the lines before it give the host and run block
//! (CPU model, `nproc`, rustc, commit, `SMORE_THREADS`, seed, nominal
//! rate, rounds) and every metric with its median, quartiles and sample
//! count over the samples the run made.
//!
//! # Workloads and why each exists
//!
//! - `serve_steady` — predict-only open-loop traffic (Poisson arrivals at
//!   4000 req/s, about a fifth of saturation) from 1200 tenants against
//!   the shared base of the d=1024 synthetic fleet, served by a separate
//!   `smore_serve` process with 2 workers over one connection. All the
//!   work is in the transport and the base packed path; streaming, state
//!   I/O and training sit idle. The main workload for transport, batching
//!   and kernel changes, and the bypass workload for adaptation changes.
//! - `serve_adapt` — the same arrivals, but a tenth of the requests are
//!   labelled ingests from a rolling cohort of drifting tenants (the
//!   1.5×-hot held-out domain of `synthetic::drift_stream`): tenants join
//!   one at a time, so enrolments spread over the run instead of firing
//!   as one storm. The per-shard session cap sits below the personalized
//!   population and the server keeps a `--state-dir` with `on_evict`
//!   flushing, so eviction, archive and hydration run throughout, while
//!   personalized tenants keep predicting through the delta path. Writes
//!   beside reads: a transport change moves both serving workloads, an
//!   adaptation change only this one.
//! - `train_infer` — the paper's offline path in-process: the
//!   USC-HAD-like fast preset, LODO fold 0, `Smore::fit` at d=4096 on one
//!   thread, `quantize`, then packed single-thread inference. The paper's
//!   training and inference claims live here; nothing is served.
//!
//! The seed picks arrival times, tenants, windows and the drift pool
//! (serving), or the order in which training windows are presented and
//! held-out windows arrive (`train_infer`, whose dataset recipe is
//! fixed). The server always trains the fixed fleet recipe (seed 7) and
//! sees only the generated requests.
//!
//! The host's cores are shared with other tenants whose load changes
//! within seconds, so every figure is a median over samples spread across
//! the whole run: 24 nominal-rate rounds, with the in-process probes
//! (inference, fleet training) and the extra server starts interleaved
//! between them.
//!
//! The same load also changes how fast the host runs the same code, by
//! up to 2× over tens of seconds, which no median within a 30 s run
//! can absorb. So the CPU-bound figures (`setup_s`, `train_s`,
//! `infer_wps` and the per-layer `serve.cpu_us_per_req`) are reported at
//! a nominal host speed: a fixed reference kernel of this benchmark's own is timed
//! through each phase, and the phase's times are multiplied (rates
//! divided) by its speed relative to nominal (`host.rs`). A program
//! change moves these figures in full; a host that runs faster or slower
//! moves the kernel too and cancels out. The run block prints the speed
//! index (`host_speed`) and the unscaled medians (`raw`); the traced
//! run's other per-layer figures are unscaled, and it reports the index
//! as `bench.host_speed`.
//!
//! # End-to-end metrics
//!
//! Every workload reports every metric (the result line must carry them
//! all). Where a metric's serving meaning does not apply, the workload
//! reports the in-process measurement of the same operation on its own
//! model, as noted. An untraced run that could not measure one of them
//! fails: a gated figure never reads 0 in silence.
//!
//! - `setup_s` — process start until the first request can be timed:
//!   server fleet training plus the first ping answered (serving), or
//!   dataset generation (`train_infer`).
//! - `ok_ratio` — answered requests over attempted: 1 − the error rate,
//!   which is 0 on a healthy run (and a gated metric may not be 0).
//!   Failures are Overloaded, Rejected, protocol errors and unanswered
//!   requests.
//! - `accuracy` — answers equal to ground truth over answers: every
//!   predict against its window label (`serve_steady`), every labelled
//!   ingest against its oracle label (`serve_adapt`, so the figure
//!   follows the adapting tenants, not the base-tenant majority), every
//!   held-out window against its label (`train_infer`). Deterministic on
//!   `train_infer`; on `serve_adapt` it moves by a few percent across
//!   seeds, since the seed draws the drift pool. It guards speed changes
//!   against quality changes.
//! - `train_s` — wall time of `Smore::fit` on one thread (`train_infer`);
//!   serving: the fit of the fleet model the server trains at start, in
//!   this process on one thread, after every round. One thread, because
//!   a two-thread fit's time moves with where the hypervisor places the
//!   two vCPUs (`serving.rs`).
//! - `infer_wps` — packed windows/s through `predict_window_with` on one
//!   scratch (serving: on the fleet base).
//! - `peak_rss_mb` — `VmHWM` of the server (serving) or of this process.
//!
//! Reported by the traced run but not gated, because on a shared 2-vCPU
//! host their run-to-run spread exceeds any usable bound:
//!
//! - `serve.cpu_us_per_req` — server user+sys CPU of a nominal round per
//!   request it answered, median over the rounds (serving only). Even at
//!   nominal host speed its 10-run IQR reached 30% of the median: the
//!   server's per-request cost is mostly wake-ups and hand-offs between
//!   threads, whose price on this host moves with where the hypervisor
//!   places the two vCPUs, which no compute probe sees.
//! - `client.predict_p50_ms` and `client.ingest_p50_ms` — median predict
//!   and ingest latency from scheduled send at the nominal rate. The
//!   server leaves Nagle on for its replies, so these medians follow host
//!   scheduling: 0.9–4 ms across 10-run sets of the same code.
//! - `client.max_rate_rps` — the highest rate of a fixed grid whose
//!   predict p99, counting failed requests as infinitely late, stays
//!   under 25 ms without a growing backlog; a step where the generator
//!   itself fell behind is invalid, not a server miss.
//! - tail latency (`client.*_p99_ms`).
//!
//! # Per-layer metrics (the `--trace 1` run) and what each predicts
//!
//! - `client.*` (this benchmark) judge whether a run is valid; they
//!   should move nothing.
//! - `serve.*` (`smore_serve`, scraped by name from its `Stats` histograms
//!   over the wire around every round) → `client.predict_p50_ms` and
//!   `serve.cpu_us_per_req` on both serving workloads, no change on
//!   `train_infer`. `serve.ledger.unattributed_us` is the client's mean
//!   latency minus the sum of the server's stage means: the wait no stage
//!   accounts for (transport, and replies held back by Nagle).
//! - `stream.*` (`smore_stream`) → `client.ingest_p50_ms`,
//!   `client.predict_p50_ms`, `serve.cpu_us_per_req` and `accuracy` on
//!   `serve_adapt`; no change on `serve_steady`.
//! - `core.*` (`smore`) → `train_s` and `infer_wps` on `train_infer`, and
//!   `serve.cpu_us_per_req` on the serving workloads.
//! - `packed.*` (`smore_packed`) → `infer_wps` on `train_infer` (encode is
//!   most of packed predict), `serve.cpu_us_per_req` and
//!   `client.max_rate_rps` on `serve_steady`; not `client.predict_p50_ms`,
//!   which is mostly waiting.
//! - `hdc.encode_s` (`smore_hdc`) → `train_s` on `train_infer` and
//!   `setup_s` on the serving workloads.
//! - `bench.trace_overhead_pct` — `train_infer` only: the median traced
//!   inference pass (one span per window) minus the median untraced pass,
//!   in percent of the untraced. On the serving workloads it is absent:
//!   traced and untraced rounds do the same work inside the timed window
//!   (the `Stats` scrapes and client spans fall outside it), so there is
//!   no overhead to measure.
//!
//! A layer a workload does not exercise reports 0 in the result line and
//! `absent` in the text block; so does a server stage or counter that
//! `Stats` no longer exports.
//!
//! The `BENCH_*.json` files written by the `load_gen` and `throughput`
//! bench binaries are closed-loop, single-run and host-less; they are not
//! this benchmark's baseline and are not comparable with it.

#![forbid(unsafe_code)]

mod host;
mod layers;
mod openloop;
mod report;
mod serving;
mod stats;
mod train;

use std::path::PathBuf;

use report::Report;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `smore_serve` binary the launcher built.
    pub server_bin: PathBuf,
    /// Scratch directory for state dirs, artifacts and traces.
    pub run_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        server_bin: PathBuf::new(),
        run_dir: PathBuf::from(".perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--server-bin" => args.server_bin = PathBuf::from(value),
            "--run-dir" => args.run_dir = PathBuf::from(value),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.run_dir.display());
        std::process::exit(1);
    }
    let result: Result<Report, String> = match args.workload.as_str() {
        "serve_steady" => serving::run(&args, false),
        "serve_adapt" => serving::run(&args, true),
        "train_infer" => train::run(&args),
        other => {
            Err(format!("unknown workload '{other}' (serve_steady | serve_adapt | train_infer)"))
        }
    };
    match result {
        Ok(mut report) => {
            if report.attempted == 0 {
                report.correct = false;
                report.violations.push("nothing was attempted".into());
            }
            if !args.trace {
                report.require_end_to_end();
            }
            report.print(&args);
            // A wrong answer is a failed run, after the evidence is out.
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
