//! Host fingerprint and process resource usage.

use std::time::Instant;

use stfsm::json::{JsonObject, RawJson};

/// `struct rusage` of 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> RUsage {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage` of the platform
    // layout; `getrusage` only writes into it.
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc != 0 {
        return RUsage::default();
    }
    usage
}

fn cpu_seconds(usage: &RUsage) -> f64 {
    usage.utime_sec as f64
        + usage.stime_sec as f64
        + (usage.utime_usec + usage.stime_usec) as f64 / 1e6
}

/// User + system CPU seconds of this process and of its reaped children.
pub fn cpu_time() -> (f64, f64) {
    (
        cpu_seconds(&rusage(RUSAGE_SELF)),
        cpu_seconds(&rusage(RUSAGE_CHILDREN)),
    )
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage(RUSAGE_SELF).maxrss_kb as f64 / 1024.0
}

/// Wall and CPU time of one timed phase.
#[derive(Debug, Clone)]
pub struct PhaseTime {
    /// Phase name.
    pub name: String,
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds of this process.
    pub cpu_s: f64,
    /// CPU seconds of child processes reaped during the phase.
    pub child_cpu_s: f64,
}

impl PhaseTime {
    /// Runs `f`, recording its wall and CPU time.
    pub fn measure<R>(name: &str, f: impl FnOnce() -> R) -> (R, PhaseTime) {
        let (cpu0, child0) = cpu_time();
        let start = Instant::now();
        let out = f();
        let wall_s = start.elapsed().as_secs_f64();
        let (cpu1, child1) = cpu_time();
        (
            out,
            PhaseTime {
                name: name.to_string(),
                wall_s,
                cpu_s: cpu1 - cpu0,
                child_cpu_s: child1 - child0,
            },
        )
    }

    /// The phase as a JSON object.
    pub fn to_json(&self) -> RawJson {
        let mut obj = JsonObject::new();
        obj.field("phase", &self.name)
            .field("wall_s", self.wall_s)
            .field("cpu_s", self.cpu_s)
            .field("child_cpu_s", self.child_cpu_s);
        RawJson(obj.finish())
    }
}

/// FNV-1a 64 over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the run executed on: core count, load, code identity.
pub fn fingerprint(commit: &str) -> RawJson {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_default();
    let binary_digest = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| format!("fnv1a64:{:016x}", fnv1a64(&bytes)))
        .unwrap_or_default();
    let mut obj = JsonObject::new();
    obj.field("nproc", nproc)
        .field("loadavg", loadavg)
        .field("commit", commit)
        .field("binary_digest", binary_digest)
        .field("os", std::env::consts::OS)
        .field("arch", std::env::consts::ARCH);
    RawJson(obj.finish())
}
