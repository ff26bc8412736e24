//! Machine stamp, environment guard and memory readings.
//!
//! CPU model, cache size and peak RSS come from the kernel's read-only
//! `/proc` and `/sys` interfaces; the commit comes from the checkout's own
//! `.git`, when there is one.

use std::path::Path;

/// Environment variables that would make the program cache engines on disk
/// or trace itself; a benchmark run must see each unset or `off`.
const GUARDED: [&str; 2] = ["VCSEL_CACHE", "VCSEL_TRACE"];

/// Refuses to run when the engine cache or the program's own tracing is
/// switched on, or when the legacy `MG_DEBUG` tracing alias is set.
///
/// # Errors
///
/// One line naming the offending variable.
pub fn guard_environment() -> Result<(), String> {
    for var in GUARDED {
        if let Ok(value) = std::env::var(var) {
            if !value.eq_ignore_ascii_case("off") {
                return Err(format!("{var}={value}: the benchmark needs {var} unset or off"));
            }
        }
    }
    if std::env::var_os("MG_DEBUG").is_some() {
        return Err("MG_DEBUG is set: it turns on multigrid tracing".into());
    }
    Ok(())
}

/// What the results depend on besides the code.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// CPU model name.
    pub cpu: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// The worker count the library's threaded kernels resolved.
    pub workers: usize,
    /// `VCSEL_THREADS` as set, or `unset`.
    pub vcsel_threads: String,
    /// Last-level cache size, bytes (0 when unknown).
    pub llc_bytes: usize,
    /// The checkout's commit, or why it is unknown.
    pub commit: String,
}

impl Stamp {
    /// Reads the stamp of this machine and checkout.
    pub fn read() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            workers: vcsel_numerics::hardware_threads(),
            vcsel_threads: std::env::var("VCSEL_THREADS").unwrap_or_else(|_| "unset".into()),
            llc_bytes: llc_bytes(),
            commit: commit(&Path::new(env!("CARGO_MANIFEST_DIR")).join("..")),
        }
    }

    /// One line for the run's log.
    pub fn line(&self) -> String {
        format!(
            "machine: cpu=\"{}\" nproc={} workers={} VCSEL_THREADS={} llc_mb={:.1} commit={}",
            self.cpu,
            self.nproc,
            self.workers,
            self.vcsel_threads,
            self.llc_bytes as f64 / 1e6,
            self.commit
        )
    }
}

/// Size of the highest-level cache of CPU 0, bytes.
fn llc_bytes() -> usize {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .filter_map(|i| {
            let dir = base.join(format!("index{i}"));
            let level: usize =
                std::fs::read_to_string(dir.join("level")).ok()?.trim().parse().ok()?;
            let size = parse_size(std::fs::read_to_string(dir.join("size")).ok()?.trim())?;
            Some((level, size))
        })
        .max()
        .map_or(0, |(_, size)| size)
}

/// Parses sysfs cache sizes such as `32768K` or `16M`.
fn parse_size(text: &str) -> Option<usize> {
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        _ => (text, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * scale)
}

/// The commit `repo_root`'s `.git` points at, or a note saying why not.
fn commit(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(str::trim)
                    .filter(|hash| !hash.is_empty())
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// CPU time the hypervisor has taken from this machine since boot, seconds
/// per CPU: the `steal` column of `/proc/stat` (100 Hz ticks summed over
/// CPUs) divided by the number of CPUs listed there.
pub fn steal_per_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let mut lines = stat.lines();
    let ticks: f64 = lines.next()?.split_whitespace().nth(8)?.parse().ok()?;
    let cpus = lines.take_while(|l| l.starts_with("cpu")).count().max(1);
    Some(ticks / 100.0 / cpus as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_size("32768K"), Some(32 << 20));
        assert_eq!(parse_size("16M"), Some(16 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
