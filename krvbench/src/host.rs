//! Host and process facts: the provenance record written with every run,
//! the CPU-time clocks, and the `/proc` readings behind the memory,
//! thread and steal figures.

use crate::json::quote;
use std::path::Path;

/// Environment variables that each select a different program (the
/// simulator's execution tier, the native lane width). A run with either
/// set measures something other than the shipped defaults, so `run`
/// refuses to start.
pub const PROGRAM_SELECTORS: [&str; 2] = ["KRV_COMPILED", "KRV_NATIVE_LANES"];

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find(|line| line.starts_with("model name") || line.starts_with("Model"))
        .and_then(|line| line.split_once(':'))
        .map_or_else(
            || "unknown".to_string(),
            |(_, model)| model.trim().to_string(),
        )
}

/// The git revision of the checkout the benchmark runs from, read from
/// `.git` directly (no `git` process); `unknown` outside a repository.
pub fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            let (rev, name) = line.split_once(' ')?;
            (name == reference).then(|| rev.to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host and provenance record as a JSON object.
pub fn provenance_json(seed: u64) -> String {
    let env = |name: &str| std::env::var(name).map_or_else(|_| "null".to_string(), |v| quote(&v));
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"git_revision\": {}, \"seed\": {seed}, \
         \"KRV_COMPILED\": {}, \"KRV_NATIVE_LANES\": {}}}",
        nproc(),
        quote(&cpu_model()),
        quote(&git_revision()),
        env(PROGRAM_SELECTORS[0]),
        env(PROGRAM_SELECTORS[1]),
    )
}

/// `struct timespec` on Linux: two C `long`s.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, time: *mut Timespec) -> std::ffi::c_int;
}

/// Linux clock ids: CPU time of the whole process (exited threads
/// included) and of the calling thread.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;

/// Reads a CPU-time clock, in seconds. These clocks bring the calling
/// thread's time up to the moment of the call; `/proc/*/schedstat`
/// advances only at scheduler ticks (every 4 ms at `HZ=250`), too coarse
/// for a set-up of a few milliseconds.
fn cpu_clock(clock: std::ffi::c_int) -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through its
    // pointer argument, which points at a live, writable `Timespec` with
    // the C layout (`repr(C)`, two `long`s, as on Linux).
    let status = unsafe { clock_gettime(clock, &mut time) };
    assert_eq!(status, 0, "clock_gettime({clock}) is supported on Linux");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// CPU time of the whole process so far, every thread (exited ones
/// included), in seconds.
pub fn cpu_seconds() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far, in seconds.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// `(steal, total)` jiffies of the host's aggregate CPU line in
/// `/proc/stat`.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Steal time between two [`steal_ticks`] readings, as a share of all
/// CPU time in between.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Threads the process is running right now.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_live() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mib() > 0.0);
        assert!(thread_count() >= 1);
        let (before, thread_before) = (cpu_seconds(), thread_cpu_seconds());
        let started = std::time::Instant::now();
        while started.elapsed() < std::time::Duration::from_millis(20) {
            std::hint::black_box(started.elapsed());
        }
        assert!(cpu_seconds() > before, "spinning costs CPU time");
        // A thread's CPU time cannot outrun the wall clock.
        let spun = thread_cpu_seconds() - thread_before;
        assert!(spun > 0.0 && spun <= 0.02 + 1e-3, "{spun}");
    }

    #[test]
    fn provenance_is_valid_json() {
        let doc = crate::json::Json::parse(&provenance_json(7)).expect("valid");
        assert_eq!(
            doc.get("seed").and_then(crate::json::Json::as_f64),
            Some(7.0)
        );
        assert!(doc.get("cpu_model").is_some());
    }
}
