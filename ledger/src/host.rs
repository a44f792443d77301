//! Process and host counters read from `/proc`, and the run manifest.
//!
//! Everything here reads plain text files; no crate beyond `std` is
//! needed. Values that cannot be read (a non-Linux host) come back as
//! `None` and are left out of the record rather than guessed.

use std::fs;
use std::time::Instant;

/// `USER_HZ`: the unit of the tick counts in `/proc/self/stat`. Linux
/// fixes it at 100 on every architecture this repository builds for.
const TICKS_PER_S: f64 = 100.0;

/// CPU time this process has used, in seconds, split into user and
/// kernel time (fields 14 and 15 of `/proc/self/stat`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds (thread spawns, page faults).
    pub sys_s: f64,
}

/// Reads this process's CPU times.
pub fn cpu_times() -> Option<CpuTimes> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields after it are
    // space-separated, starting with field 3 (state).
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime / TICKS_PER_S,
        sys_s: stime / TICKS_PER_S,
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host-wide CPU jiffies from the aggregate `cpu` line of `/proc/stat`:
/// `(steal, total)` where total sums user..steal.
pub fn host_jiffies() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (v.len() == 8).then(|| (v[7], v.iter().sum()))
}

/// Wall-clock and process CPU time across a timed window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Elapsed wall-clock seconds.
    pub wall_s: f64,
    /// CPU time used during the window, if `/proc` was readable.
    pub cpu: Option<CpuTimes>,
}

impl Window {
    /// Several disjoint windows taken as one: their wall-clock and CPU
    /// times added up.
    pub fn total(windows: &[Window]) -> Window {
        let cpu = windows.iter().try_fold(CpuTimes::default(), |sum, w| {
            w.cpu.map(|c| CpuTimes {
                user_s: sum.user_s + c.user_s,
                sys_s: sum.sys_s + c.sys_s,
            })
        });
        Window {
            wall_s: windows.iter().map(|w| w.wall_s).sum(),
            cpu,
        }
    }

    /// Process CPU seconds per wall second (cores kept busy).
    pub fn cpu_util(&self) -> Option<f64> {
        self.cpu.map(|c| (c.user_s + c.sys_s) / self.wall_s)
    }

    /// Share of the process CPU time spent in the kernel.
    pub fn sys_share(&self) -> Option<f64> {
        self.cpu
            .filter(|c| c.user_s + c.sys_s > 0.0)
            .map(|c| c.sys_s / (c.user_s + c.sys_s))
    }
}

/// Runs `f` and measures its wall-clock and CPU time.
pub fn window<R>(f: impl FnOnce() -> R) -> (R, Window) {
    let cpu0 = cpu_times();
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = match (cpu0, cpu_times()) {
        (Some(a), Some(b)) => Some(CpuTimes {
            user_s: b.user_s - a.user_s,
            sys_s: b.sys_s - a.sys_s,
        }),
        _ => None,
    };
    (r, Window { wall_s, cpu })
}

/// Tracks the host's CPU steal share from the moment it is created.
#[derive(Debug, Clone, Copy)]
pub struct StealMeter {
    start: Option<(u64, u64)>,
}

impl StealMeter {
    /// Starts counting.
    pub fn start() -> Self {
        StealMeter {
            start: host_jiffies(),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `start`.
    pub fn share(&self) -> Option<f64> {
        let (s0, t0) = self.start?;
        let (s1, t1) = host_jiffies()?;
        (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
    }
}

/// The git revision of the working directory, read from `.git` without
/// running git: `HEAD` itself when detached, else the branch's loose ref
/// or its line in `packed-refs`. `"unknown"` when the benchmark runs from
/// an export, or from a worktree whose `.git` is a file.
pub fn git_rev() -> String {
    let read = |p: &str| fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(branch) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    let packed = || {
        read(".git/packed-refs")?.lines().find_map(|l| {
            let (rev, name) = l.split_once(' ')?;
            (name == branch).then(|| rev.to_string())
        })
    };
    read(&format!(".git/{branch}"))
        .map(|r| r.trim().to_string())
        .or_else(packed)
        .unwrap_or_else(|| "unknown".into())
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Compiler that built this binary.
pub const RUSTC_VERSION: &str = env!("LEDGER_RUSTC_VERSION");

/// Target features enabled at build time (comma-separated).
pub const TARGET_FEATURES: &str = env!("LEDGER_TARGET_FEATURES");
