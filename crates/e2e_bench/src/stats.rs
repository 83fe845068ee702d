//! Order statistics and the `/proc` readers behind `cpu_ms_per_req` and
//! `serving_rss_mb`.

/// Nearest-rank percentile of an unsorted sample (0 for an empty one).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples)[1]
}

/// `[q1, median, q3]` as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), so `--repeat` and `--compare` judge spread
/// exactly as the driver does. A single value is its own quartiles.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut x = samples.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    match n {
        0 => [0.0; 3],
        1 => [x[0]; 3],
        _ => [1, 2, 3].map(|i| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
        }),
    }
}

/// Process user + system CPU time in milliseconds, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in 100 Hz clock ticks).
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks * 10.0
}

/// Resident set size in MiB, from `VmRSS` in `/proc/self/status`.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let x: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&x), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let x: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&x, 0.50), 50.0);
        assert_eq!(percentile(&x, 0.95), 95.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(rss_mb() > 0.0);
        assert!(process_cpu_ms() >= 0.0);
    }
}
