//! Process-level readings (CPU time, peak memory, commit) and quantiles.

use std::path::Path;
use std::time::Duration;

/// Clock ticks per second of the `/proc/self/stat` CPU fields. Linux
/// reports them in `USER_HZ`, which is 100 on every architecture.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process so far, from fields 14
/// and 15 of `/proc/self/stat`.
///
/// # Errors
///
/// Returns a message when the file is missing or malformed.
pub fn process_cpu_time() -> Result<Duration, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields after it are
    // counted from the closing parenthesis, starting at field 3.
    let after_name = stat
        .rsplit_once(')')
        .ok_or("/proc/self/stat: no command name")?
        .1;
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |field: usize| -> Result<f64, String> {
        fields
            .get(field - 3)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("/proc/self/stat: bad field {field}"))
    };
    Ok(Duration::from_secs_f64((ticks(14)? + ticks(15)?) / USER_HZ))
}

/// CPU time the hypervisor gave to others while this machine's CPUs
/// wanted to run, summed over CPUs (the `steal` column of `/proc/stat`).
/// Zero outside a virtual machine.
///
/// # Errors
///
/// Returns a message when the file is missing or malformed.
pub fn machine_steal_time() -> Result<Duration, String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    // First line: "cpu user nice system idle iowait irq softirq steal ...".
    stat.lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<u64>().ok())
        .map(|ticks| Duration::from_secs_f64(ticks as f64 / USER_HZ))
        .ok_or_else(|| "/proc/stat: no steal column".to_owned())
}

/// Peak resident set size of the process so far, in MB (`VmHWM`).
///
/// # Errors
///
/// Returns a message when the file is missing or malformed.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM line".to_owned())
}

/// The commit checked out under `root`, read from `.git` without running
/// git, or `"unknown"` outside a git checkout.
#[must_use]
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(hash) = read(&git.join(reference)) {
        return hash.trim().to_owned();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The `q`-quantile of `values` (`0 ≤ q ≤ 1`), interpolating linearly
/// between order statistics. `NaN` for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn proc_readings_are_plausible() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(50) {}
        assert!(process_cpu_time().unwrap() > Duration::ZERO);
        assert!(machine_steal_time().is_ok());
    }
}
