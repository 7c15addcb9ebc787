//! Seeded inputs and the load generator.
//!
//! Every input derives from the workload seed: user sequences here, and the
//! datasets, update streams and arrival schedules through [`derive_seed`].
//!
//! An **open loop** sends request `i` when it is due, `i / rate` seconds
//! after the phase starts, whatever the replies are doing; at most
//! `threads` requests are in flight, one per client thread, so a request
//! whose thread is still busy goes out late. Its latency is charged from
//! when it was due, which counts the wait a stall imposes on later
//! requests. The generator's own lateness (sleep overshoot, scheduling) is
//! measured separately as *lag*. A **closed loop** sends each client's next
//! request as soon as the previous reply lands.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// SplitMix64: a tiny, well-mixed deterministic generator.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// An independent seed for one input stream (`purpose`) of a workload.
pub fn derive_seed(seed: u64, purpose: &str) -> u64 {
    let mut h = SplitMix64::new(seed);
    let mut acc = h.next_u64();
    for b in purpose.bytes() {
        acc = SplitMix64::new(acc ^ u64::from(b)).next_u64();
    }
    acc
}

/// `count` user ids in `0..n_users` with a power-law skew: user
/// `floor(r^(1+exponent) * n_users)` for uniform `r`, so low ids are hot
/// and the tail is cold. This is the popularity draw of the repository's
/// scale benchmark, so cache hit rates match its reported figures.
pub fn skewed_users(seed: u64, n_users: u32, exponent: f64, count: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let picked = (rng.next_f64().powf(1.0 + exponent) * f64::from(n_users)) as u32;
            picked.min(n_users.saturating_sub(1))
        })
        .collect()
}

/// `count` distinct user ids of `0..n_users`, drawn without replacement.
pub fn sample_users(seed: u64, n_users: u32, count: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    let mut out: Vec<u32> = Vec::with_capacity(count);
    while out.len() < count.min(n_users as usize) {
        let u = rng.below(u64::from(n_users)) as u32;
        if !out.contains(&u) {
            out.push(u);
        }
    }
    out
}

/// When request `i` of an open loop at `rate` per second is due, measured
/// from the phase start.
pub fn due_offset(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Calls `f(i)` for `i` in `0..count`, each when it is due at `rate` per
/// second from the first call (or at once, if the previous call ran past
/// that time), and returns the results in order.
pub fn paced<T>(rate: f64, count: usize, mut f: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    (0..count)
        .map(|i| {
            if let Some(wait) = (start + due_offset(i, rate)).checked_duration_since(Instant::now())
            {
                std::thread::sleep(wait);
            }
            f(i)
        })
        .collect()
}

/// Generator lateness of one send: how long after the later of its due
/// time and the moment its client thread became free it actually went out.
/// Waiting for a busy thread is the system's backlog, charged to latency;
/// only the remainder is the generator's own lag.
pub fn own_lag(due: Instant, free: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due.max(free))
}

/// Counts and raw samples of one load phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseResult {
    /// Requests sent.
    pub sent: u64,
    /// Requests answered correctly-shaped and successfully.
    pub ok: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Per-request latency in milliseconds (open loop: from due time).
    pub latency_ms: Vec<f64>,
    /// Per-request generator lag in milliseconds (open loop only).
    pub lag_ms: Vec<f64>,
    /// When each successful request completed, in seconds from the phase
    /// start.
    pub done_s: Vec<f64>,
    /// Wall time of the phase in seconds.
    pub wall_s: f64,
}

impl PhaseResult {
    fn merge(&mut self, other: PhaseResult) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.latency_ms.extend(other.latency_ms);
        self.lag_ms.extend(other.lag_ms);
        self.done_s.extend(other.done_s);
    }

    /// Answered requests per second: the median over `windows` equal
    /// slices of the phase of the requests answered in each, so that one
    /// stalled slice does not decide the figure.
    pub fn throughput(&self, windows: usize) -> f64 {
        let windows = windows.max(1);
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        let width = self.wall_s / windows as f64;
        let mut counts = vec![0u64; windows];
        for &t in &self.done_s {
            counts[((t / width) as usize).min(windows - 1)] += 1;
        }
        let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
        crate::stats::median(&rates).unwrap_or(0.0)
    }
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs an open loop: `users[i]` is due `i / rate` seconds after the
/// start, on `threads` client threads that each keep at most one request
/// in flight. `send` returns whether the request succeeded.
pub fn open_loop<F>(threads: usize, rate: f64, users: &[u32], send: F) -> PhaseResult
where
    F: Fn(u32) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    // (request index, succeeded, latency ms, lag ms) of every request.
    let mut records: Vec<(usize, bool, f64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut part = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= users.len() {
                            break;
                        }
                        let free = Instant::now();
                        let due = start + due_offset(i, rate);
                        if let Some(wait) = due.checked_duration_since(free) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let ok = send(users[i]);
                        let latency = millis(Instant::now().saturating_duration_since(due));
                        part.push((i, ok, latency, millis(own_lag(due, free, sent))));
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop client thread panicked"))
            .collect()
    });
    records.sort_unstable_by_key(|r| r.0);
    let ok = records.iter().filter(|r| r.1).count() as u64;
    PhaseResult {
        sent: records.len() as u64,
        ok,
        failed: records.len() as u64 - ok,
        latency_ms: records.iter().map(|r| r.2).collect(),
        lag_ms: records.iter().map(|r| r.3).collect(),
        done_s: Vec::new(),
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Runs a closed loop for `duration`: `threads` clients each send the next
/// user of `users` (cycling) as soon as their previous reply lands.
pub fn closed_loop<F>(threads: usize, duration: Duration, users: &[u32], send: F) -> PhaseResult
where
    F: Fn(u32) -> bool + Sync,
{
    assert!(!users.is_empty(), "a closed loop needs users");
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let stop = start + duration;
    let mut total = PhaseResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut part = PhaseResult::default();
                    while Instant::now() < stop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let sent = Instant::now();
                        let ok = send(users[i % users.len()]);
                        part.sent += 1;
                        if ok {
                            part.ok += 1;
                            part.done_s.push(start.elapsed().as_secs_f64());
                        } else {
                            part.failed += 1;
                        }
                        part.latency_ms.push(millis(sent.elapsed()));
                    }
                    part
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("closed-loop client thread panicked"));
        }
    });
    total.wall_s = start.elapsed().as_secs_f64();
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_users_other_seed_other_users() {
        let a = skewed_users(derive_seed(1, "open"), 1 << 20, 0.8, 500);
        let b = skewed_users(derive_seed(1, "open"), 1 << 20, 0.8, 500);
        let c = skewed_users(derive_seed(2, "open"), 1 << 20, 0.8, 500);
        let d = skewed_users(derive_seed(1, "closed"), 1 << 20, 0.8, 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(a.iter().all(|&u| u < 1 << 20));
    }

    #[test]
    fn skew_makes_low_ids_hot() {
        let users = skewed_users(9, 1000, 0.8, 20_000);
        let low = users.iter().filter(|&&u| u < 100).count();
        // P(u < 100) = 0.1^(1/1.8) ~ 0.28, ten times the share of the tail's
        // last 100 ids.
        assert!(low > 5_000, "{low}");
        let high = users.iter().filter(|&&u| u >= 900).count();
        assert!(high < low / 4, "{high} vs {low}");
    }

    #[test]
    fn sample_users_is_distinct_and_bounded() {
        let s = sample_users(3, 50, 20);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(s.iter().all(|&u| u < 50));
        assert_eq!(sample_users(3, 5, 20).len(), 5);
    }

    #[test]
    fn schedule_and_lag_arithmetic() {
        assert_eq!(due_offset(0, 50.0), Duration::ZERO);
        assert_eq!(due_offset(50, 50.0), Duration::from_secs(1));
        assert_eq!(due_offset(3, 200.0), Duration::from_millis(15));
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        // Thread free before the due time: lag counts from the due time.
        assert_eq!(own_lag(t0 + ms(10), t0, t0 + ms(12)), ms(2));
        // Thread busy past the due time: the backlog is not generator lag.
        assert_eq!(own_lag(t0 + ms(10), t0 + ms(30), t0 + ms(31)), ms(1));
        // Sent exactly on time.
        assert_eq!(own_lag(t0 + ms(10), t0, t0 + ms(10)), Duration::ZERO);
    }

    #[test]
    fn open_loop_charges_latency_from_due_time() {
        // One thread, 100 requests/s, each taking 25 ms: request i is due at
        // 10*i ms but cannot start before 25*i ms, so its latency from due
        // time grows by ~15 ms per request while its own lag stays small.
        let users: Vec<u32> = (0..8).collect();
        let r = open_loop(1, 100.0, &users, |_| {
            std::thread::sleep(Duration::from_millis(25));
            true
        });
        assert_eq!((r.sent, r.ok, r.failed), (8, 8, 0));
        assert!(r.latency_ms[7] >= 7.0 * 15.0 + 25.0, "{:?}", r.latency_ms);
        assert!(r.latency_ms[0] < r.latency_ms[7]);
        assert!(r.lag_ms.iter().all(|&l| l < 15.0), "{:?}", r.lag_ms);
    }

    #[test]
    fn paced_calls_run_in_order_no_earlier_than_due() {
        // 100 calls/s: call i is due 10*i ms after the first. Call 1 runs
        // 25 ms, so call 2 (due at 20 ms) starts late, at once.
        let start = Instant::now();
        let at = paced(100.0, 4, |i| {
            let t = start.elapsed();
            if i == 1 {
                std::thread::sleep(Duration::from_millis(25));
            }
            (i, t)
        });
        assert_eq!(at.iter().map(|a| a.0).collect::<Vec<_>>(), [0, 1, 2, 3]);
        let ms = |i: usize| at[i].1.as_secs_f64() * 1e3;
        assert!(ms(1) >= 10.0 && ms(3) >= 30.0, "{at:?}");
        assert!(ms(2) >= 35.0 && ms(3) - ms(2) < 5.0, "{at:?}");
    }

    #[test]
    fn windowed_throughput_ignores_one_stalled_window() {
        // 10 s phase: 100 answers in each second except a stalled fourth.
        let mut done_s = Vec::new();
        for w in 0..10 {
            let n = if w == 3 { 5 } else { 100 };
            done_s.extend((0..n).map(|k| w as f64 + k as f64 / n as f64));
        }
        let r = PhaseResult { wall_s: 10.0, done_s, ..PhaseResult::default() };
        assert_eq!(r.throughput(10), 100.0);
        assert_eq!(r.throughput(1), 90.5);
        assert_eq!(PhaseResult::default().throughput(4), 0.0);
    }

    #[test]
    fn open_loop_counts_every_request() {
        let users: Vec<u32> = (0..40).collect();
        let r = open_loop(2, 2000.0, &users, |u| {
            std::thread::sleep(Duration::from_micros(u64::from(u % 3) * 300));
            u != 7
        });
        assert_eq!((r.sent, r.ok, r.failed), (40, 39, 1));
        assert_eq!(r.latency_ms.len(), 40);
        assert_eq!(r.lag_ms.len(), 40);
    }

    #[test]
    fn closed_loop_counts_failures() {
        let users = [1u32, 2, 3];
        let r = closed_loop(2, Duration::from_millis(30), &users, |u| {
            std::thread::sleep(Duration::from_millis(1));
            u != 2
        });
        assert_eq!(r.sent, r.ok + r.failed);
        assert!(r.failed > 0 && r.ok > 0);
        assert_eq!(r.latency_ms.len() as u64, r.sent);
        assert_eq!(r.done_s.len() as u64, r.ok);
    }
}
