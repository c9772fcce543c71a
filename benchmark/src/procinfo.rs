//! What `/proc` says about this process and this machine. Each workload
//! runs in a process of its own, so the peak resident set is the
//! workload's.

use std::fs;
use std::process::Command;

/// A `Name:   value kB` line of a `/proc/<pid>/status`-style file.
fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`) in MB; 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// User and system CPU seconds of the whole process so far. The tick is
/// taken as 100 Hz, which is what Linux reports to user space.
pub fn cpu_seconds() -> (f64, f64) {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) / 100.0, ticks(12) / 100.0)
}

/// Involuntary context switches summed over the live threads: how often
/// something else took the processor from the benchmark.
pub fn involuntary_context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| status_field(&s, "nonvoluntary_ctxt_switches"))
        .sum()
}

extern "C" {
    // From the C library the standard library already links.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts this thread, and every thread it starts from now on, to the
/// first processor it is allowed to run on. Returns whether that worked;
/// a failure leaves the affinity as it was.
pub fn pin_to_one_cpu() -> bool {
    // 1024 processors, the size of glibc's `cpu_set_t`.
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable buffer of exactly `bytes` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some((word, bits)) = allowed.iter().enumerate().find(|(_, w)| **w != 0) else {
        return false;
    };
    let mut one = [0u64; 16];
    one[word] = 1 << bits.trailing_zeros();
    // SAFETY: `one` is a readable buffer of exactly `bytes` bytes.
    unsafe { sched_setaffinity(0, bytes, one.as_ptr()) == 0 }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The machine descriptor recorded with every `repeat` report.
pub fn machine_descriptor() -> Vec<(&'static str, String)> {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        (
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
        ),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        (
            "commit",
            command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t  12345 kB\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(text, "VmHWM"), Some(12345));
        assert_eq!(status_field(text, "nonvoluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(text, "VmRSS"), None);
    }

    #[test]
    fn pinning_leaves_one_allowed_cpu() {
        // On a thread of its own: affinity is per thread, and the other
        // tests keep theirs.
        let allowed = std::thread::spawn(|| {
            assert!(pin_to_one_cpu());
            let status = fs::read_to_string("/proc/thread-self/status").expect("status");
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|l| l.trim().to_string())
        })
        .join()
        .expect("pinning thread");
        let list = allowed.expect("Cpus_allowed_list");
        assert!(
            !list.contains(',') && !list.contains('-'),
            "allowed: {list}"
        );
    }

    #[test]
    fn this_process_has_memory_and_a_descriptor() {
        assert!(peak_rss_mb() > 0.5);
        let d = machine_descriptor();
        assert_eq!(d[0].0, "nproc");
        assert!(d.iter().any(|(k, v)| *k == "profile" && !v.is_empty()));
    }
}
