//! In-process probes: spans timed from this file around calls into each
//! crate's public functions (`smore`, `smore_packed`, `smore_hdc`,
//! `smore_stream`). No tracing lives inside the program itself.

use std::path::Path;
use std::time::Instant;

use smore::{QuantizedSmore, ServeScratch, Smore};
use smore_packed::{EncoderScratch, PackedHypervector, PackedNgramEncoder};
use smore_stream::{FlushPolicy, ServeEngine, StateDir};
use smore_tensor::Matrix;

use crate::report::Report;
use crate::stats::{percentile, sorted};

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One recorded span: layer-qualified name, start and end (ns after the
/// probe clock's origin). Kept in memory, written out at the end.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span recorder: timing always happens (the samples feed the
/// metrics); span records are only kept when tracing.
pub struct Spans {
    origin: Instant,
    pub keep: bool,
    pub records: Vec<Span>,
}

impl Spans {
    pub fn new(keep: bool) -> Self {
        Spans { origin: Instant::now(), keep, records: Vec::new() }
    }

    /// Times `f`, returns its result and the elapsed seconds.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.keep {
            self.push(name, id, start, end);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Records a span that ran from `start` to `end`.
    pub fn push(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| {
            u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.records.push(Span { name, id, start_ns: ns(start), end_ns: ns(end) });
    }
}

/// Packed inference over `windows` on one scratch, accumulated over
/// calls to [`infer_passes`].
#[derive(Debug, Default)]
pub struct Inference {
    /// Windows per second of each full pass.
    pub pass_wps: Vec<f64>,
    /// Median per-window `predict_window_with` time of each pass, µs.
    pub pass_p50_us: Vec<f64>,
    /// Pass durations of traced and untraced passes (for the overhead).
    pub traced_pass_s: Vec<f64>,
    pub plain_pass_s: Vec<f64>,
    pub attempted: usize,
    pub errors: usize,
    pub bad_label: usize,
    /// Correct answers of the first pass (predictions are deterministic).
    pub correct: usize,
    pub first_pass: usize,
}

/// Two passes over `windows` through `predict_window_with`, folded into
/// `inf`. With `spans.keep`, the second pass records one span per window
/// — the traced/untraced pair the tracing overhead comes from.
pub fn infer_passes(
    model: &QuantizedSmore,
    windows: &[Matrix],
    labels: &[usize],
    spans: &mut Spans,
    inf: &mut Inference,
) {
    let mut scratch = ServeScratch::new();
    let num_classes = model.config().num_classes;
    for pass in 0..2 {
        let traced = spans.keep && pass == 1;
        let scoring = inf.first_pass == 0;
        let mut window_us = Vec::with_capacity(windows.len());
        let pass_start = Instant::now();
        for (i, (w, &truth)) in windows.iter().zip(labels).enumerate() {
            let t = Instant::now();
            let label = model.predict_window_with(w, &mut scratch).map(|p| p.label);
            let end = Instant::now();
            window_us.push(end.duration_since(t).as_secs_f64() * 1e6);
            if traced {
                spans.push("core.predict_window_with", i as u64, t, end);
            }
            inf.attempted += 1;
            match label {
                Err(_) => inf.errors += 1,
                Ok(l) if l >= num_classes => inf.bad_label += 1,
                Ok(l) if scoring => {
                    inf.first_pass += 1;
                    inf.correct += usize::from(l == truth);
                }
                Ok(_) => {}
            }
        }
        let pass_s = secs(pass_start);
        inf.pass_wps.push(windows.len() as f64 / pass_s);
        inf.pass_p50_us.extend(percentile(&sorted(&window_us), 0.5));
        if traced { &mut inf.traced_pass_s } else { &mut inf.plain_pass_s }.push(pass_s);
    }
}

/// Median-of-`reps` timings of `quantize` and of `QuantizedSmore::load`
/// on a freshly saved artifact, plus the quantized model.
pub fn quantize_and_load(
    model: &Smore,
    dir: &Path,
    reps: usize,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<QuantizedSmore, String> {
    let mut quantize_ms = Vec::new();
    let mut quantized = None;
    for i in 0..reps {
        let (q, s) = spans.time("core.quantize", i as u64, || model.quantize());
        quantized = Some(q.map_err(|e| format!("quantize failed: {e}"))?);
        quantize_ms.push(s * 1e3);
    }
    let quantized = quantized.ok_or("no quantize repetitions")?;
    let path = dir.join("model.smore");
    quantized.save(&path).map_err(|e| format!("artifact save failed: {e}"))?;
    let mut load_ms = Vec::new();
    for i in 0..reps {
        let (loaded, s) =
            spans.time("core.artifact_load", i as u64, || QuantizedSmore::load(&path));
        loaded.map_err(|e| format!("artifact load failed: {e}"))?;
        load_ms.push(s * 1e3);
    }
    let _ = std::fs::remove_file(&path);
    report.add("core.quantize_ms", &quantize_ms, "repetitions");
    report.add("core.artifact_load_ms", &load_ms, "repetitions");
    Ok(quantized)
}

/// `PackedNgramEncoder::encode_window_into` per window, µs, on an
/// encoder of the model's shape with a global value range, like the
/// fitted model's (the range values do not change the work).
pub fn packed_encode_us(
    model: &Smore,
    windows: &[Matrix],
    spans: &mut Spans,
) -> Result<Vec<f64>, String> {
    let config = model.config();
    let ranges = vec![(-4.0, 4.0); config.channels];
    let encoder = PackedNgramEncoder::new(config.encoder_config(Some(ranges)))
        .map_err(|e| format!("packed encoder: {e}"))?;
    let mut scratch = EncoderScratch::new();
    let mut out = PackedHypervector::zeros(model.config().dim);
    let mut us = Vec::with_capacity(windows.len());
    for (i, w) in windows.iter().enumerate() {
        let (r, s) = spans.time("packed.encode_window_into", i as u64, || {
            encoder.encode_window_into(w, &mut scratch, &mut out)
        });
        r.map_err(|e| format!("packed encode failed: {e}"))?;
        std::hint::black_box(&out);
        us.push(s * 1e6);
    }
    Ok(us)
}

/// `Smore::encode` over the training windows (seconds) — the `smore_hdc`
/// share of training.
pub fn hdc_encode_s(model: &Smore, windows: &[Matrix], spans: &mut Spans) -> Result<f64, String> {
    let (r, s) = spans.time("hdc.encode", 0, || model.encode(windows));
    r.map_err(|e| format!("encode failed: {e}"))?;
    Ok(s)
}

/// The adaptation lifecycle of `tenants` drifting tenants, in process:
/// ingest until enrolment, predict through the delta, suspend, archive,
/// resume. Records the `stream.*` and `core.delta_predict_us` spans.
pub fn stream_lifecycle(
    engine: &ServeEngine,
    drift: &[(Matrix, usize)],
    tenants: usize,
    dir: &Path,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<(), String> {
    let mut state = StateDir::open(dir, FlushPolicy::OnEvict, |_| true)
        .map_err(|e| format!("state dir: {e}"))?;
    let (mut enroll_ms, mut ingest_us, mut delta_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut suspend_us, mut write_us, mut resume_us) = (Vec::new(), Vec::new(), Vec::new());
    for t in 0..tenants {
        let tenant = 0xBE9C_0000 + t as u64;
        let mut session = engine.session_for(tenant);
        let offset = t * 97;
        for k in 0..drift.len().min(256) {
            let (w, l) = &drift[(offset + k) % drift.len()];
            let (out, s) =
                spans.time("stream.ingest_labelled", tenant, || session.ingest_labelled(w, *l));
            let out = out.map_err(|e| format!("ingest failed: {e}"))?;
            if out.adapted.is_some() {
                enroll_ms.push(s * 1e3);
                break;
            }
            ingest_us.push(s * 1e6);
        }
        if session.is_personalized() {
            for k in 0..64 {
                let (w, _) = &drift[(offset + 300 + k) % drift.len()];
                let (r, s) = spans
                    .time("core.delta_predict", tenant, || session.predict_window(w).map(|_| ()));
                r.map_err(|e| format!("delta predict failed: {e}"))?;
                delta_us.push(s * 1e6);
            }
        }
        let (bytes, s) = spans.time("stream.suspend", tenant, || session.suspend());
        suspend_us.push(s * 1e6);
        if let Some(bytes) = bytes {
            let (r, s) = spans.time("stream.archive_write", tenant, || state.write(tenant, &bytes));
            r.map_err(|e| format!("archive write failed: {e}"))?;
            write_us.push(s * 1e6);
            let (r, s) = spans
                .time("stream.resume_session", tenant, || engine.resume_session(tenant, &bytes));
            r.map_err(|e| format!("resume failed: {e}"))?;
            resume_us.push(s * 1e6);
        }
    }
    if enroll_ms.is_empty() {
        return Err("no in-process tenant enrolled on the drift stream".into());
    }
    report.add("stream.enroll_ms", &enroll_ms, "enrolments");
    report.add("stream.ingest_us", &ingest_us, "ingests");
    report.add("core.delta_predict_us", &delta_us, "predicts");
    report.add("stream.suspend_us", &suspend_us, "suspends");
    report.add("stream.archive_write_us", &write_us, "writes");
    report.add("stream.resume_us", &resume_us, "resumes");
    Ok(())
}

/// Writes the recorded spans as CSV (`name,id,start_ns,end_ns`).
pub fn write_spans(path: &Path, header: &str, spans: &[Span]) -> Result<(), String> {
    use std::io::Write;
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    writeln!(w, "{header}").map_err(io)?;
    for s in spans {
        writeln!(w, "{},{},{},{}", s.name, s.id, s.start_ns, s.end_ns).map_err(io)?;
    }
    w.flush().map_err(io)
}
