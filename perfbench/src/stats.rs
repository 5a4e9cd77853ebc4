//! The benchmark's own arithmetic: percentiles, `/proc` parsing, the
//! time ledger and the seeded random source. Everything here is pure so
//! the unit tests at the bottom can pin it down.

/// Nearest-rank percentile of an ascending-sorted slice, with the rank
/// rule of `smore::metrics::nearest_rank_index` (`ceil((n-1)·q)`), so a
/// benchmark percentile and a server histogram percentile mean the same
/// thing. `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() - 1) as f64 * q).ceil().max(0.0) as usize;
    Some(sorted[rank.min(sorted.len() - 1)])
}

/// Sorts a copy ascending (NaN-free input; infinities sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, first and third quartile of a sample, by nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Spread {
    pub fn of(values: &[f64]) -> Option<Spread> {
        let s = sorted(values);
        Some(Spread {
            median: percentile(&s, 0.5)?,
            q1: percentile(&s, 0.25)?,
            q3: percentile(&s, 0.75)?,
            n: s.len(),
        })
    }
}

/// User + system CPU ticks of a process from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted from the last `)`: utime and stime
/// are fields 14 and 15 of the line.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state), so field k sits at index k - 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`). Linux
/// fixes it at 100 on every architecture the workspace builds for.
pub const USER_HZ: f64 = 100.0;

/// A `kB` field (e.g. `VmHWM`) of `/proc/<pid>/status`, in kB.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Process CPU time (user + system) in seconds, read from `/proc`.
pub fn process_cpu_secs(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_stat_cpu_ticks(&stat).map(|t| t as f64 / USER_HZ)
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn process_peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_status_kb(&status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// The time ledger's remainder: client-observed mean latency minus the
/// sum of the server's per-stage means — the time no server stage
/// accounts for (socket buffers, Nagle, scheduling, the client itself).
/// Stages the server does not report are simply absent from the sum.
pub fn ledger_unattributed(client_mean: f64, stage_means: &[f64]) -> f64 {
    client_mean - stage_means.iter().sum::<f64>()
}

/// splitmix64: a tiny seeded generator, so the workload inputs depend on
/// `--seed` alone and not on any dependency's algorithm.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s,
    /// in nanoseconds.
    pub fn exp_gap_ns(&mut self, rate: f64) -> u64 {
        let u = 1.0 - self.unit(); // (0, 1]
        (-u.ln() / rate * 1e9) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_agrees_with_the_workspace_nearest_rank_rule() {
        for n in 1..60usize {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let idx = smore::metrics::nearest_rank_index(n, q);
                assert_eq!(percentile(&values, q), Some(values[idx]), "n={n} q={q}");
            }
        }
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&sorted(&[3.0, 1.0, 2.0, 4.0]), 0.5), Some(3.0));
    }

    #[test]
    fn spread_reports_median_and_quartiles() {
        let s = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert!(Spread::of(&[]).is_none());
    }

    #[test]
    fn stat_parsing_counts_fields_after_the_command_name() {
        // A command name with spaces and a ')' must not shift the fields.
        let stat = "4242 (smore serve) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    1234 567 0 0 20 0 7 0 100 1000000 300 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1234 + 567));
        assert_eq!(parse_stat_cpu_ticks("12 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_parsing_reads_kb_fields() {
        let status =
            "Name:\tsmore_serve\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(51200));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(40000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(process_cpu_secs(pid).is_some());
        assert!(process_peak_rss_mb(pid).unwrap() > 0.0);
    }

    #[test]
    fn ledger_remainder_is_client_minus_stage_sum() {
        assert_eq!(ledger_unattributed(300.0, &[20.0, 5.0, 30.0, 1.0, 4.0]), 240.0);
        assert_eq!(ledger_unattributed(50.0, &[]), 50.0);
        // Stages can over-account (e.g. batch-mean charging); the row
        // then goes negative rather than being clamped away.
        assert_eq!(ledger_unattributed(10.0, &[8.0, 4.0]), -2.0);
    }

    #[test]
    fn rng_is_seeded_and_gaps_match_the_rate() {
        let (mut a, mut b) = (Rng::new(5), Rng::new(5));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(5).next_u64(), Rng::new(6).next_u64());
        let mut r = Rng::new(1);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exp_gap_ns(4000.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 250_000.0).abs() < 10_000.0, "mean gap {mean} ns");
    }
}
