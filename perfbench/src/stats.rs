//! Sample statistics and open-loop scheduling: the percentile rule
//! every latency in a record follows, and the due-time accounting an
//! open-loop phase charges its requests with.

use std::time::Duration;

/// Candidate percentiles, highest first. A record reports the highest
/// one its sample supports.
const CANDIDATES: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A percentile is only reported when at least this many samples lie
/// strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in a sorted sample of `n`.
fn rank_index(n: usize, p: f64) -> usize {
    // The tolerance keeps float noise (99.9 / 100 × 10,000 is a hair
    // above 9,990) from pushing an exact rank up by one.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// How many of `n` sorted samples lie beyond percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank_index(n, p) - 1
}

/// The highest candidate percentile with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median is unsupported.
pub fn highest_supported(n: usize) -> Option<f64> {
    CANDIDATES
        .iter()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// One percentile of a sorted sample, with the counts behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    pub p: f64,
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

/// Percentile `p` of an already sorted sample (nearest rank).
pub fn quantile(sorted: &[f64], p: f64) -> Quantile {
    let n = sorted.len();
    Quantile {
        p,
        value: if n == 0 {
            0.0
        } else {
            sorted[rank_index(n, p)]
        },
        n,
        beyond: beyond(n, p),
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 50.0).value
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The clock an open loop runs on: seconds since the phase started,
/// and a way to wait for a point on that axis.
pub trait Clock {
    fn now(&self) -> f64;
    fn wait_until(&self, t: f64);
}

/// The wall clock.
pub struct WallClock(std::time::Instant);

impl WallClock {
    /// A clock whose zero is `start`, shared by every sender of a phase.
    pub fn at(start: std::time::Instant) -> WallClock {
        WallClock(start)
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn wait_until(&self, t: f64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_secs_f64(t - now));
        }
    }
}

/// One open-loop request: how late it was sent and how long after its
/// due time its reply arrived, both in microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    pub late_us: f64,
    pub latency_us: f64,
}

/// Run one sender's share of an open loop: request `i` is due at
/// `offset + i / rate` seconds, for every due time before `until`.
/// The sender waits for each reply before sending the next, so a
/// stalled reply delays every request due behind it, and because
/// latency counts from the due time, each of them is charged the
/// stall. `send(i)` performs request `i`.
pub fn open_loop<C: Clock, T>(
    clock: &C,
    rate: f64,
    offset: f64,
    until: f64,
    mut send: impl FnMut(usize) -> T,
) -> Vec<(Timed, T)> {
    let mut out = Vec::new();
    for i in 0.. {
        let due = offset + i as f64 / rate;
        if due >= until {
            break;
        }
        clock.wait_until(due);
        let sent = clock.now();
        let result = send(i);
        let done = clock.now();
        out.push((
            Timed {
                late_us: (sent - due).max(0.0) * 1e6,
                latency_us: (done - due) * 1e6,
            },
            result,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(100_000), Some(99.99));
    }

    #[test]
    fn small_samples_support_little_or_nothing() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(200), Some(95.0));
    }

    #[test]
    fn the_supported_percentile_always_has_ten_beyond() {
        for n in 1..5_000 {
            if let Some(p) = highest_supported(n) {
                assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_values() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let q = quantile(&v, 99.0);
        assert_eq!((q.value, q.n, q.beyond), (990.0, 1000, 10));
        assert_eq!(quantile(&v, 50.0).value, 500.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    /// A clock that only moves when a request takes time.
    struct FakeClock(std::cell::Cell<f64>);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0.get()
        }
        fn wait_until(&self, t: f64) {
            self.0.set(self.0.get().max(t));
        }
    }

    #[test]
    fn a_stalled_reply_charges_every_request_due_behind_it() {
        // 100 requests/s, each answered in 1 ms, except request 3,
        // whose reply takes 55 ms.
        let clock = FakeClock(std::cell::Cell::new(0.0));
        let service = |i: usize| if i == 3 { 0.055 } else { 0.001 };
        let timed = open_loop(&clock, 100.0, 0.0, 0.2, |i| {
            clock.0.set(clock.0.get() + service(i));
        });
        let lat: Vec<f64> = timed.iter().map(|(t, _)| t.latency_us).collect();
        let late: Vec<f64> = timed.iter().map(|(t, _)| t.late_us).collect();
        assert_eq!(timed.len(), 20);
        // Before the stall: just the service time.
        for &l in &lat[..3] {
            assert!((l - 1_000.0).abs() < 1e-6);
        }
        // The stalled request itself.
        assert!((lat[3] - 55_000.0).abs() < 1e-6);
        // Requests 4..=8 were due at 40..80 ms but could only be sent
        // at 85 ms and after: each is charged its wait.
        assert!((late[4] - 45_000.0).abs() < 1e-6);
        assert!((lat[4] - 46_000.0).abs() < 1e-6);
        assert!((lat[5] - 37_000.0).abs() < 1e-6);
        assert!((lat[8] - 10_000.0).abs() < 1e-6);
        // The backlog drains by request 9 (due 90 ms, sent 90 ms).
        assert!(late[9].abs() < 1e-6);
        assert!((lat[9] - 1_000.0).abs() < 1e-6);
        // Every request behind the stall and before the drain is
        // charged more than its own service time.
        assert!(lat[4..9].iter().all(|&l| l > 1_000.0));
    }
}
