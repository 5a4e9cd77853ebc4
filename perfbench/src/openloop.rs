//! The open-loop client: one connection, one sender thread (the caller)
//! and one receiver thread. Requests go out on a precomputed schedule no
//! matter how the server is doing, and every latency is measured from the
//! request's *scheduled* send time — so a sender that stalls charges the
//! stall to every request queued behind it instead of hiding it
//! (coordinated omission).

use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use smore_serve::protocol::{
    decode_response, encode_request, read_frame, ErrorCode, FrameRead, Request, Response,
};
use smore_tensor::Matrix;

/// What a request asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Predict,
    /// A labelled ingest (oracle label = the window's ground truth).
    Ingest,
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Req {
    /// Scheduled send time, nanoseconds after the phase starts.
    pub at_ns: u64,
    pub kind: Kind,
    pub tenant: u64,
    /// Index into the phase's window pool.
    pub window: usize,
    /// Ground-truth label of that window.
    pub truth: u32,
}

/// What came back for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    Label {
        label: u32,
        buffered: bool,
        adapted: bool,
    },
    Overloaded,
    Rejected,
    /// Malformed / TooLarge / UnknownTag, or a non-prediction response.
    Protocol,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// Arrival time, nanoseconds after the phase starts.
    pub recv_ns: u64,
    pub outcome: Outcome,
}

/// Everything the receiver saw, indexed by request id (= schedule index).
#[derive(Debug, Clone, Default)]
pub struct Received {
    pub answers: Vec<Option<Answer>>,
    /// Answers for an id that was already answered.
    pub duplicates: usize,
    /// Answers for an id that was never sent.
    pub unknown: usize,
    /// Transport failure that ended the phase early, if any.
    pub transport: Option<String>,
}

/// One open-loop phase as it ran.
#[derive(Debug, Clone)]
pub struct PhaseRun {
    /// When the sender actually wrote each request (ns after start).
    pub sent_ns: Vec<u64>,
    pub received: Received,
    /// Requests sent but unanswered when the schedule ended.
    pub backlog_at_end: usize,
}

fn request_for(r: &Req, windows: &[Matrix]) -> Request {
    let window = windows[r.window].clone();
    match r.kind {
        Kind::Predict => Request::Predict { tenant_id: r.tenant, window },
        Kind::Ingest => Request::Ingest { tenant_id: r.tenant, label: Some(r.truth), window },
    }
}

fn outcome_of(response: Response) -> Outcome {
    match response {
        Response::Prediction(p) => {
            Outcome::Label { label: p.label, buffered: p.buffered, adapted: p.adapted }
        }
        Response::Error { code: ErrorCode::Overloaded, .. } => Outcome::Overloaded,
        Response::Error { code: ErrorCode::Rejected, .. } => Outcome::Rejected,
        _ => Outcome::Protocol,
    }
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(Instant::now().saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

fn receive(stream: TcpStream, n: usize, start: Instant, got: &AtomicUsize) -> Received {
    let mut rx = Received { answers: vec![None; n], ..Received::default() };
    let mut reader = BufReader::new(stream);
    let mut answered = 0;
    while answered < n {
        let payload = match read_frame(&mut reader) {
            Ok(FrameRead::Payload(p)) => p,
            Ok(FrameRead::Closed) => {
                rx.transport = Some("server closed the connection".into());
                break;
            }
            Ok(FrameRead::Oversized { declared } | FrameRead::Runt { declared }) => {
                rx.transport = Some(format!("server framed {declared} bytes"));
                break;
            }
            Err(e) => {
                rx.transport = Some(format!("read failed: {e}"));
                break;
            }
        };
        let recv_ns = nanos_since(start);
        let (id, response) = match decode_response(&payload) {
            Ok(decoded) => decoded,
            Err(bad) => {
                rx.transport = Some(format!("undecodable response: {}", bad.message));
                break;
            }
        };
        match usize::try_from(id).ok().and_then(|i| rx.answers.get_mut(i)) {
            None => rx.unknown += 1,
            Some(Some(_)) => rx.duplicates += 1,
            Some(slot) => {
                *slot = Some(Answer { recv_ns, outcome: outcome_of(response) });
                answered += 1;
                // ordering: Relaxed — a progress count the sender reads
                // for its backlog figure; the answers themselves travel
                // through the join.
                got.store(answered, Ordering::Relaxed);
            }
        }
    }
    rx
}

/// Runs one open-loop phase against `addr`: sends `reqs` on their
/// schedule over one fresh connection, waits up to `drain` after the
/// last send for the stragglers, and returns what happened.
///
/// `stall` makes the sender sleep before request `k` — the hook the
/// tests use to prove that a stalled sender shows up as latency.
pub fn run_phase(
    addr: &str,
    reqs: &[Req],
    windows: &[Matrix],
    drain: Duration,
    stall: Option<(usize, Duration)>,
) -> io::Result<PhaseRun> {
    let n = reqs.len();
    // Encode every frame up front so the sender only copies bytes.
    let frames: Vec<Vec<u8>> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| encode_request(i as u64, &request_for(r, windows)))
        .collect();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    let closer = stream.try_clone()?;
    let got = Arc::new(AtomicUsize::new(0));
    let start = Instant::now() + Duration::from_millis(2);

    let (done_tx, done_rx) = mpsc::channel();
    let got_rx = Arc::clone(&got);
    let receiver = std::thread::Builder::new().name("perfbench-recv".into()).spawn(move || {
        let rx = receive(read_half, n, start, &got_rx);
        let _ = done_tx.send(());
        rx
    })?;

    let mut sent_ns = vec![0u64; n];
    let mut buf = Vec::new();
    let mut i = 0;
    let mut stalled = false;
    let mut send_error = None;
    while i < n {
        if let Some((k, pause)) = stall {
            if k == i && !stalled {
                std::thread::sleep(pause);
                stalled = true;
            }
        }
        let due = start + Duration::from_nanos(reqs[i].at_ns);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            continue;
        }
        let now_ns = nanos_since(start);
        buf.clear();
        // Everything already due goes out in one write.
        while i < n && reqs[i].at_ns <= now_ns {
            if stall.is_some_and(|(k, _)| k == i) && !stalled {
                break;
            }
            buf.extend_from_slice(&frames[i]);
            sent_ns[i] = now_ns;
            i += 1;
        }
        if let Err(e) = stream.write_all(&buf) {
            send_error = Some(format!("write failed: {e}"));
            break;
        }
    }
    // ordering: Relaxed — see the store in `receive`.
    let backlog_at_end = n.saturating_sub(got.load(Ordering::Relaxed));

    // Wait for the stragglers; past the drain budget, cut the connection
    // so the receiver returns with the missing answers still missing.
    let last_due = reqs.last().map_or(0, |r| r.at_ns);
    let deadline = start + Duration::from_nanos(last_due) + drain;
    let wait = deadline.saturating_duration_since(Instant::now());
    if send_error.is_some() || done_rx.recv_timeout(wait).is_err() {
        let _ = closer.shutdown(Shutdown::Both);
    }
    let mut received = receiver.join().map_err(|_| io::Error::other("receiver thread panicked"))?;
    if received.transport.is_none() {
        received.transport = send_error;
    }
    Ok(PhaseRun { sent_ns, received, backlog_at_end })
}

/// Outcome counts of one phase plus the checks that decide whether the
/// run is correct.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub attempted: usize,
    /// Answered with an in-range prediction.
    pub answered: usize,
    /// Answers whose label equals the request's ground truth.
    pub correct: usize,
    /// The same two counts for labelled ingests alone, whose ground truth
    /// is the oracle label sent with them.
    pub ingest_answered: usize,
    pub ingest_correct: usize,
    pub overloaded: usize,
    pub rejected: usize,
    pub protocol: usize,
    pub unanswered: usize,
    pub duplicates: usize,
    pub unknown: usize,
    /// Predictions whose label is out of range.
    pub bad_label: usize,
    /// Predict answers flagged as buffered/adapted (only ingests may be).
    pub bad_flags: usize,
    /// Ingest answers that fired an enrolment.
    pub adapted: usize,
    pub transport: Option<String>,
}

impl Tally {
    /// Failed requests: refused, rejected, protocol errors, unanswered.
    pub fn failed(&self) -> usize {
        self.overloaded + self.rejected + self.protocol + self.unanswered
    }

    /// Reasons the run's outputs are wrong; empty when they are right.
    /// `Overloaded` is a failure but not a wrong answer — the server is
    /// allowed to refuse, not to lie, drop or repeat.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let mut check = |count: usize, what: &str| {
            if count > 0 {
                v.push(format!("{count} {what}"));
            }
        };
        check(self.unanswered, "requests unanswered");
        check(self.duplicates, "requests answered more than once");
        check(self.unknown, "answers for requests never sent");
        check(self.bad_label, "out-of-range labels");
        check(self.bad_flags, "predict answers flagged as ingests");
        check(self.rejected, "requests rejected");
        check(self.protocol, "protocol errors");
        if let Some(t) = &self.transport {
            v.push(format!("transport: {t}"));
        }
        v
    }

    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.answered += o.answered;
        self.correct += o.correct;
        self.ingest_answered += o.ingest_answered;
        self.ingest_correct += o.ingest_correct;
        self.overloaded += o.overloaded;
        self.rejected += o.rejected;
        self.protocol += o.protocol;
        self.unanswered += o.unanswered;
        self.duplicates += o.duplicates;
        self.unknown += o.unknown;
        self.bad_label += o.bad_label;
        self.bad_flags += o.bad_flags;
        self.adapted += o.adapted;
        if self.transport.is_none() {
            self.transport.clone_from(&o.transport);
        }
    }
}

/// Checks every answer of a phase against its request.
pub fn tally(reqs: &[Req], rx: &Received, num_classes: u32) -> Tally {
    let mut t = Tally {
        attempted: reqs.len(),
        duplicates: rx.duplicates,
        unknown: rx.unknown,
        transport: rx.transport.clone(),
        ..Tally::default()
    };
    for (i, r) in reqs.iter().enumerate() {
        match rx.answers.get(i).copied().flatten().map(|a| a.outcome) {
            None => t.unanswered += 1,
            Some(Outcome::Overloaded) => t.overloaded += 1,
            Some(Outcome::Rejected) => t.rejected += 1,
            Some(Outcome::Protocol) => t.protocol += 1,
            Some(Outcome::Label { label, buffered, adapted }) => {
                if label >= num_classes {
                    t.bad_label += 1;
                    continue;
                }
                if r.kind == Kind::Predict && (buffered || adapted) {
                    t.bad_flags += 1;
                }
                t.adapted += usize::from(adapted);
                t.answered += 1;
                t.correct += usize::from(label == r.truth);
                if r.kind == Kind::Ingest {
                    t.ingest_answered += 1;
                    t.ingest_correct += usize::from(label == r.truth);
                }
            }
        }
    }
    t
}

/// Latency from scheduled send to answer, in ms, for the requests of
/// `kind`. A request that failed or went unanswered counts as infinite
/// latency: it missed every limit.
pub fn latencies_ms(reqs: &[Req], rx: &Received, kind: Kind) -> Vec<f64> {
    reqs.iter()
        .enumerate()
        .filter(|(_, r)| r.kind == kind)
        .map(|(i, r)| match rx.answers.get(i).copied().flatten() {
            Some(Answer { recv_ns, outcome: Outcome::Label { .. } }) => {
                recv_ns.saturating_sub(r.at_ns) as f64 / 1e6
            }
            _ => f64::INFINITY,
        })
        .collect()
}

/// How late the sender wrote each request, in ms.
pub fn lateness_ms(reqs: &[Req], run: &PhaseRun) -> Vec<f64> {
    reqs.iter().zip(&run.sent_ns).map(|(r, &s)| s.saturating_sub(r.at_ns) as f64 / 1e6).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{percentile, sorted};
    use smore_serve::protocol::{decode_request, encode_response, WirePrediction};
    use std::net::TcpListener;

    fn plan(n: usize, gap_ns: u64) -> Vec<Req> {
        (0..n)
            .map(|i| Req {
                at_ns: i as u64 * gap_ns,
                kind: Kind::Predict,
                tenant: i as u64 % 7,
                window: 0,
                truth: (i % 3) as u32,
            })
            .collect()
    }

    /// A stand-in server that answers every request at once with the
    /// label `request id % 3`.
    fn echo_server() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            while let Ok(FrameRead::Payload(p)) = read_frame(&mut reader) {
                let (id, _) = decode_request(&p).unwrap();
                let answer = Response::Prediction(WirePrediction {
                    label: (id % 3) as u32,
                    is_ood: false,
                    delta_max: 0.5,
                    best_domain: 0,
                    buffered: false,
                    adapted: false,
                });
                if writer.write_all(&encode_response(id, &answer)).is_err() {
                    break;
                }
            }
        });
        addr
    }

    fn window() -> Vec<Matrix> {
        vec![Matrix::zeros(4, 2)]
    }

    #[test]
    fn a_stalled_sender_raises_the_latency_of_the_requests_after_it() {
        let reqs = plan(40, 1_000_000); // one request per ms
        let stall = Duration::from_millis(30);
        let run =
            run_phase(&echo_server(), &reqs, &window(), Duration::from_secs(2), Some((10, stall)))
                .unwrap();
        let t = tally(&reqs, &run.received, 3);
        assert!(t.violations().is_empty(), "{:?}", t.violations());
        assert_eq!(t.correct, 40);
        let lat = latencies_ms(&reqs, &run.received, Kind::Predict);
        // Before the stall: prompt. Right after it: charged the stall
        // (request 10 was due at 10 ms, went out at ≥ 40 ms).
        assert!(lat[..10].iter().all(|&l| l < 25.0), "{lat:?}");
        assert!(lat[10] >= 29.0, "{lat:?}");
        assert!(lat[15] >= 24.0, "{lat:?}");
        let late = lateness_ms(&reqs, &run);
        assert!(late[10] >= 29.0 && late[12] >= 27.0, "{late:?}");
    }

    #[test]
    fn an_unstalled_sender_measures_small_latencies() {
        let reqs = plan(200, 200_000);
        let run =
            run_phase(&echo_server(), &reqs, &window(), Duration::from_secs(2), None).unwrap();
        let t = tally(&reqs, &run.received, 3);
        assert_eq!((t.answered, t.failed()), (200, 0));
        let lat = sorted(&latencies_ms(&reqs, &run.received, Kind::Predict));
        assert!(percentile(&lat, 0.5).unwrap() < 20.0);
    }

    fn good_answers(reqs: &[Req]) -> Received {
        Received {
            answers: reqs
                .iter()
                .map(|r| {
                    Some(Answer {
                        recv_ns: r.at_ns + 1000,
                        outcome: Outcome::Label { label: r.truth, buffered: false, adapted: false },
                    })
                })
                .collect(),
            ..Received::default()
        }
    }

    #[test]
    fn checker_accepts_a_clean_phase() {
        let reqs = plan(10, 1000);
        let t = tally(&reqs, &good_answers(&reqs), 3);
        assert!(t.violations().is_empty());
        assert_eq!((t.answered, t.correct, t.failed()), (10, 10, 0));
    }

    #[test]
    fn checker_fails_a_missing_answer() {
        let reqs = plan(10, 1000);
        let mut rx = good_answers(&reqs);
        rx.answers[4] = None;
        let t = tally(&reqs, &rx, 3);
        assert_eq!((t.unanswered, t.failed()), (1, 1));
        assert!(!t.violations().is_empty());
        assert!(latencies_ms(&reqs, &rx, Kind::Predict)[4].is_infinite());
    }

    #[test]
    fn checker_fails_a_duplicated_or_unknown_answer() {
        let reqs = plan(10, 1000);
        let mut rx = good_answers(&reqs);
        rx.duplicates = 1;
        assert!(!tally(&reqs, &rx, 3).violations().is_empty());
        let mut rx = good_answers(&reqs);
        rx.unknown = 1;
        assert!(!tally(&reqs, &rx, 3).violations().is_empty());
    }

    #[test]
    fn checker_fails_a_wrong_answer() {
        let reqs = plan(10, 1000);
        // Out-of-range label.
        let mut rx = good_answers(&reqs);
        rx.answers[2] = Some(Answer {
            recv_ns: 5,
            outcome: Outcome::Label { label: 3, buffered: false, adapted: false },
        });
        let t = tally(&reqs, &rx, 3);
        assert_eq!(t.bad_label, 1);
        assert!(!t.violations().is_empty());
        // A predict answered as if it were an ingest.
        let mut rx = good_answers(&reqs);
        rx.answers[3] = Some(Answer {
            recv_ns: 5,
            outcome: Outcome::Label { label: 0, buffered: true, adapted: false },
        });
        assert!(!tally(&reqs, &rx, 3).violations().is_empty());
        // Rejected and protocol errors are wrong; Overloaded only fails.
        for (outcome, wrong) in
            [(Outcome::Rejected, true), (Outcome::Protocol, true), (Outcome::Overloaded, false)]
        {
            let mut rx = good_answers(&reqs);
            rx.answers[1] = Some(Answer { recv_ns: 5, outcome });
            let t = tally(&reqs, &rx, 3);
            assert_eq!(t.failed(), 1);
            assert_eq!(!t.violations().is_empty(), wrong, "{outcome:?}");
        }
    }

    #[test]
    fn accuracy_counts_labels_equal_to_truth() {
        let reqs = plan(10, 1000);
        let mut rx = good_answers(&reqs);
        rx.answers[0] = Some(Answer {
            recv_ns: 5,
            outcome: Outcome::Label { label: 1, buffered: false, adapted: false },
        });
        let t = tally(&reqs, &rx, 3);
        assert_eq!((t.answered, t.correct), (10, 9));
        assert_eq!((t.ingest_answered, t.ingest_correct), (0, 0));
        assert!(t.violations().is_empty());
    }

    #[test]
    fn ingest_accuracy_counts_only_ingests_against_their_oracle_label() {
        let mut reqs = plan(10, 1000);
        for r in reqs.iter_mut().step_by(2) {
            r.kind = Kind::Ingest;
        }
        let mut rx = good_answers(&reqs);
        // One wrong ingest answer and one wrong predict answer.
        for i in [0, 1] {
            rx.answers[i] = Some(Answer {
                recv_ns: 5,
                outcome: Outcome::Label {
                    label: (reqs[i].truth + 1) % 3,
                    buffered: false,
                    adapted: false,
                },
            });
        }
        let t = tally(&reqs, &rx, 3);
        assert_eq!((t.answered, t.correct), (10, 8));
        assert_eq!((t.ingest_answered, t.ingest_correct), (5, 4));
    }
}
