//! Order statistics, the host sentinel and the process's memory peak.

use std::time::Instant;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in `(0, 100]`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) gives
/// them — the driver computes run-to-run spread with that function, so
/// `compare` must agree with it. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread: inter-quartile distance as a share of the median
/// (0 below two values or for a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => ((q3 - q1) / m).abs(),
        _ => 0.0,
    }
}

/// Hardware threads available to this process, floored at one.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The noisy-host sentinel: a fixed arithmetic spin on every hardware
/// thread at once; returns the slowest thread's wall time in ms. The work
/// is constant, so a reading above the quiet-host value means another
/// tenant held a core while it ran.
pub fn spin_ms() -> f64 {
    const STEPS: u64 = 20_000_000;
    let spin = || {
        let start = Instant::now();
        let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15_u64);
        for _ in 0..STEPS {
            // xorshift64: a serial dependency chain the compiler cannot fold.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        start.elapsed().as_secs_f64() * 1e3
    };
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..hw_threads()).map(|_| scope.spawn(spin)).collect();
        threads.into_iter().map(|t| t.join().expect("sentinel thread panicked")).fold(0.0, f64::max)
    })
}

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`); `None` where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
