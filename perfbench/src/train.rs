//! `train_infer`: the paper's offline path in-process — generate the
//! USC-HAD-like fast preset, fit SMORE at d=4096 on LODO fold 0,
//! quantize, then packed single-thread inference on the held-out domain.

use std::time::Instant;

use smore::{Smore, SmoreConfig};
use smore_data::presets::{usc_had, PresetProfile};
use smore_data::split;

use crate::host::{self, HostSpeed};
use crate::layers::{self, Inference, Spans};
use crate::report::Report;
use crate::stats::{percentile, process_peak_rss_mb, sorted, Rng, Spread};
use crate::Args;

const DIM: usize = 4096;
const HELD_OUT: usize = 0;
/// Dataset generations timed for `setup_s`.
const SETUPS: usize = 5;
/// Host speed probes before each dataset generation, after the last and
/// before the fit (see [`crate::host`]).
const PROBES: usize = 4;

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut spans = Spans::new(args.trace);
    let mut host = HostSpeed::new();

    // Each phase's CPU-bound figures are scaled by the host speed probed
    // through that phase: set-up, fit, inference.
    let (mut setup_h, mut fit_h, mut infer_h) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup_s = Vec::new();
    let mut ds = None;
    for i in 0..SETUPS {
        setup_h.extend(host.probes(PROBES));
        let (d, s) = spans.time("data.generate", i as u64, || {
            usc_had(&PresetProfile::fast()).map_err(|e| format!("dataset: {e}"))
        });
        ds = Some(d?);
        setup_s.push(s);
    }
    setup_h.extend(host.probes(PROBES));
    let ds = ds.ok_or("no dataset")?;
    let (train_idx, mut test_idx) = split::lodo(&ds, HELD_OUT).map_err(|e| format!("lodo: {e}"))?;
    // The dataset and the model are fixed, so accuracy is the same on
    // every run and any change to it shows; the seed picks the order in
    // which the held-out windows arrive.
    shuffle(&mut test_idx, &mut Rng::new(args.seed));
    let (train_w, train_l, train_d) = ds.gather(&train_idx);
    let (test_w, test_l, _) = ds.gather(&test_idx);

    // One thread: the two-thread fit moves by up to a seventh between
    // runs on this host as its two vCPUs share a physical core or not,
    // which no single-thread speed probe sees.
    let config = SmoreConfig::builder()
        .dim(DIM)
        .channels(ds.meta().channels)
        .num_classes(ds.meta().num_classes)
        .threads(1)
        .build()
        .map_err(|e| format!("config: {e}"))?;
    let mut model = Smore::new(config).map_err(|e| format!("model: {e}"))?;
    // The fit is one call that cannot be split or probed while it runs
    // (a probe beside it would share its cores): its speed is read from
    // the probes just before it and through the inference that follows.
    fit_h.extend(host.probes(PROBES));
    let (fit, train_s) = spans.time("core.fit", 0, || model.fit(&train_w, &train_l, &train_d));
    fit.map_err(|e| format!("fit failed: {e}"))?;
    let quantized = layers::quantize_and_load(&model, &args.run_dir, 3, &mut spans, &mut report)?;
    let mut traced_extra = None;
    if args.trace {
        let encode_s = layers::hdc_encode_s(&model, &train_w, &mut spans)?;
        let packed_us = layers::packed_encode_us(&model, &test_w, &mut spans)?;
        traced_extra = Some((encode_s, packed_us));
    }
    // Inference for about a third of the run budget: packed passes on
    // one scratch, a host speed probe after each pair.
    let pid = std::process::id();
    let mut inf = Inference::default();
    let start = Instant::now();
    while inf.pass_wps.len() < 4 || start.elapsed().as_secs_f64() < (args.seconds / 3.0).max(2.0) {
        layers::infer_passes(&quantized, &test_w, &test_l, &mut spans, &mut inf);
        infer_h.push(host.probe());
    }

    let mut violations = Vec::new();
    if inf.errors > 0 {
        violations.push(format!("{} predictions failed", inf.errors));
    }
    if inf.bad_label > 0 {
        violations.push(format!("{} out-of-range labels", inf.bad_label));
    }
    let accuracy = inf.correct as f64 / inf.first_pass.max(1) as f64;
    let chance = 1.0 / ds.meta().num_classes as f64;
    if accuracy <= 2.0 * chance {
        violations.push(format!("accuracy {accuracy} is not above twice chance ({chance})"));
    }

    let windows = inf.attempted as f64;
    fit_h.extend(&infer_h);
    let (setup_h, fit_h, infer_h) = (
        host::index(&setup_h).ok_or("no set-up speed probe")?,
        host::index(&fit_h).ok_or("no fit speed probe")?,
        host::index(&infer_h).ok_or("no inference speed probe")?,
    );
    let nominal = "at nominal host speed";
    report.add(
        "setup_s",
        &host::nominal_times(&setup_s, setup_h),
        &format!("dataset generations, {nominal}"),
    );
    report.one("ok_ratio", Some((windows - inf.errors as f64) / windows), "windows");
    report.one("accuracy", Some(accuracy), "held-out windows");
    report.one(
        "train_s",
        host::nominal_times(&[train_s], fit_h).first().copied(),
        &format!("fit, {nominal}"),
    );
    report.add(
        "infer_wps",
        &host::nominal_rates(&inf.pass_wps, infer_h),
        &format!("passes, {nominal}"),
    );
    report.one("peak_rss_mb", process_peak_rss_mb(pid), "process");
    report.fact("host_speed", format!("setup {setup_h} fit {fit_h} inference {infer_h}"));
    report.fact(
        "raw",
        format!(
            "setup_s {} train_s {train_s} infer_wps {}",
            percentile(&sorted(&setup_s), 0.5).unwrap_or(f64::NAN),
            percentile(&sorted(&inf.pass_wps), 0.5).unwrap_or(f64::NAN),
        ),
    );

    if let Some((encode_s, packed_us)) = traced_extra {
        report.one("bench.host_speed", Some(infer_h), "inference probes");
        report.one("core.fit_s", Some(train_s), "fit");
        report.one("hdc.encode_s", Some(encode_s), "training windows");
        report.one("core.fit_rest_s", Some(train_s - encode_s), "fit");
        report.add("core.base_predict_us", &inf.pass_p50_us, "pass medians");
        report.one("packed.encode_p50_us", percentile(&sorted(&packed_us), 0.5), "windows");
        report.one("packed.encode_p99_us", percentile(&sorted(&packed_us), 0.99), "windows");
        let overhead = Spread::of(&inf.traced_pass_s)
            .zip(Spread::of(&inf.plain_pass_s))
            .map(|(t, p)| (t.median / p.median - 1.0) * 100.0);
        report.one("bench.trace_overhead_pct", overhead, "traced vs untraced passes");
        let path = args.run_dir.join(format!("trace-train_infer-s{}.csv", args.seed));
        layers::write_spans(&path, "name,id,start_ns,end_ns", &spans.records)?;
        report.fact("trace_file", path.display());
    }

    report.fact("dim", DIM);
    report.fact("held_out_domain", HELD_OUT);
    report.fact("train_windows", train_w.len());
    report.fact("test_windows", test_w.len());
    report.fact("setups", SETUPS);
    report.fact("infer_passes", inf.pass_wps.len());
    report.correct = violations.is_empty();
    report.violations = violations;
    report.attempted = inf.attempted;
    report.failed = inf.errors;
    Ok(report)
}

/// Fisher–Yates with the benchmark's seeded generator.
fn shuffle(v: &mut [usize], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}
