//! Timing helpers: the closed loop, per-window percentiles, and the
//! process's peak resident set.

use std::time::{Duration, Instant};

/// One operation's outcome as the closed loop sees it.
pub struct Outcome {
    /// Time spent inside the operation, nanoseconds.
    pub nanos: u64,
    /// Whether the operation answered correctly.
    pub ok: bool,
}

/// Latencies of one measurement window, nanoseconds.
#[derive(Default)]
pub struct Window {
    pub lat: Vec<u64>,
}

/// The per-window figures the benchmark reports medians of.
#[derive(Clone, Copy, Debug)]
pub struct WindowStats {
    pub p50_us: f64,
    pub p99_us: f64,
    pub ops_per_s: f64,
    pub samples: usize,
}

impl Window {
    /// Percentiles and throughput of this window; `None` when too few
    /// samples fell in it to place a p99 with ten samples beyond it.
    pub fn stats(&self) -> Option<WindowStats> {
        if self.lat.len() < 1000 {
            return None;
        }
        let mut sorted = self.lat.clone();
        sorted.sort_unstable();
        let busy: u64 = sorted.iter().sum();
        Some(WindowStats {
            p50_us: percentile(&sorted, 0.50) as f64 / 1e3,
            p99_us: percentile(&sorted, 0.99) as f64 / 1e3,
            ops_per_s: sorted.len() as f64 * 1e9 / busy.max(1) as f64,
            samples: sorted.len(),
        })
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a list of figures (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of unsorted figures (NaN when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    v.get(rank - 1).copied().unwrap_or(f64::NAN)
}

/// The contended-phase figure of times measured over a run: their 90th
/// percentile.
///
/// The host alternates between quiet phases and phases in which other
/// tenants share the processor, and the same work runs up to twice as
/// long in the second. A phase lasts seconds to minutes, and a run may
/// fall mostly into either, so a median over the run swings with its mix
/// of phases. Nearly every run passes through contended phases and the
/// slowdown they cause is steady, so the slowest tenth of a run's figures
/// reads alike from run to run; a change that slows the program moves it
/// like any other figure.
pub fn contended_time(values: &[f64]) -> f64 {
    quantile(values, 0.9)
}

/// The contended-phase figure of rates measured over a run: their 10th
/// percentile (see [`contended_time`]).
pub fn contended_rate(values: &[f64]) -> f64 {
    quantile(values, 0.1)
}

/// Each figure's contended-phase value over windows ([`contended_time`]
/// of the latencies, [`contended_rate`] of the throughput), plus the total
/// sample count.
pub fn summarize(windows: &[WindowStats]) -> WindowStats {
    let pick = |f: fn(&WindowStats) -> f64| windows.iter().map(f).collect::<Vec<_>>();
    WindowStats {
        p50_us: contended_time(&pick(|w| w.p50_us)),
        p99_us: contended_time(&pick(|w| w.p99_us)),
        ops_per_s: contended_rate(&pick(|w| w.ops_per_s)),
        samples: windows.iter().map(|w| w.samples).sum(),
    }
}

/// What a closed-loop phase measured.
pub struct Phase {
    pub windows: Vec<Window>,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    /// Per-window statistics of every window with enough samples.
    pub fn window_stats(&self) -> Vec<WindowStats> {
        self.windows.iter().filter_map(Window::stats).collect()
    }

    /// Mean latency over every sample of the phase, microseconds.
    pub fn mean_us(&self) -> f64 {
        let (n, sum) = self.windows.iter().fold((0u64, 0u64), |(n, s), w| {
            (n + w.lat.len() as u64, s + w.lat.iter().sum::<u64>())
        });
        sum as f64 / n.max(1) as f64 / 1e3
    }
}

/// Runs `op(i)` for i = 0, 1, 2, … in a closed loop (one client, the next
/// operation issued when the previous one returns) for `windows` windows
/// of `seconds / windows` wall-clock time each. `between(w)` runs before
/// window `w`, outside its clock.
pub fn closed_loop(
    seconds: f64,
    windows: usize,
    mut between: impl FnMut(usize),
    mut op: impl FnMut(usize) -> Outcome,
) -> Phase {
    let window_len = Duration::from_secs_f64(seconds / windows as f64);
    let mut phase = Phase {
        windows: Vec::with_capacity(windows),
        attempted: 0,
        failed: 0,
    };
    let mut i = 0usize;
    for w in 0..windows {
        between(w);
        let mut window = Window::default();
        let started = Instant::now();
        while started.elapsed() < window_len {
            let out = op(i);
            phase.attempted += 1;
            if !out.ok {
                phase.failed += 1;
            }
            window.lat.push(out.nanos);
            i += 1;
        }
        phase.windows.push(window);
    }
    phase
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Times `f`, returning its result and the elapsed nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}
