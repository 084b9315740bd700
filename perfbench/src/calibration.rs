//! Host-speed calibration.
//!
//! A host that shares its cores with other machines drifts in speed by
//! tens of percent over seconds to minutes (on a 2-vCPU host, five runs
//! of the same `synth` stage took 6.3 s to 9.8 s of wall time within ten
//! minutes).  Wall time alone then cannot tell two runs of the same code
//! apart from a real change.  So every timed operation is bracketed by
//! *reference chunks* — a fixed computation owned by this benchmark, never
//! by the program; one chunk, or one per 2 % of a long operation's
//! length, whose median counts — and its time is rescaled to a nominal
//! host speed:
//!
//! ```text
//! speed       = (NOMINAL_CHUNK_S / mean(chunks before, chunks after)) ^ SENSITIVITY
//! busy        = CPU seconds (this process and its children) / wall seconds, at most 1
//! reference_s = wall_s * (1 - busy) + wall_s * busy * speed
//! ```
//!
//! Only the share of an operation the CPU was busy for is rescaled: time
//! spent waiting — on a network timer, say — does not depend on the
//! host's speed.  `SENSITIVITY` is how much more the program's work slows
//! than the chunks do when the host is contended (see its docs).
//!
//! The end-to-end time metrics are reference seconds; the raw wall
//! seconds and the host slowdown are recorded beside them.  A change to
//! the program moves reference seconds as it moves wall seconds on a host
//! of steady speed.

use std::collections::HashMap;
use std::time::Instant;

use crate::host::cpu_time;
use crate::stats::median;
use crate::tracer::{SpanId, Tracer};

/// Reference-chunk time at the nominal host speed (the chunk's time on
/// the benchmark host when nothing else loads it).
pub const NOMINAL_CHUNK_S: f64 = 0.0075;

/// The program's slowdown under host contention as a power of the
/// reference chunks' slowdown.  Measured on the 2-vCPU benchmark host over
/// 930 operations (synthesis of `ex4`, stuck-at campaigns on `dk16`,
/// `planet` and `scf`) with a chunk after each: fitting the log time of
/// windows of 5–10 consecutive operations of one kind against the log
/// time of their chunks gave exponents of 1.2–1.9.  With 1.5 the standard
/// deviation of the windows' log time around the correction fell from
/// 0.052–0.101 (exponent 1) to 0.037–0.069 for windows of 10, except on
/// `dk16` (0.061 to 0.065).  The `scf` campaign alone fits about 0.5
/// (18 repetitions in three processes); the campaign stages take each
/// campaign's median over rounds to bound what that leaves.
pub const SENSITIVITY: f64 = 1.5;

/// Calibration time spent after an operation, as a share of its length.
const CHUNK_SHARE: f64 = 0.02;
/// Most chunks run after one operation.
const MAX_CHUNKS: usize = 41;

/// Integer mixing and table updates within a 1 MiB working set.
fn alu_kernel(iters: u64) -> u64 {
    let mut table = vec![0u64; 1 << 17];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(x ^ i);
        if x & 3 == 0 {
            acc = acc.wrapping_add(table[(acc as usize) & (table.len() - 1)]);
        } else {
            acc ^= x.rotate_left(7);
        }
    }
    acc
}

/// Small allocations, hashing and sorting.
fn alloc_kernel(rounds: u64) -> u64 {
    let mut x = 0x1234_5678_9ABC_DEF1u64;
    let mut acc = 0u64;
    for _ in 0..rounds {
        let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.entry(x % 1500).or_default().push(x);
        }
        let mut folded: Vec<u64> = map
            .values()
            .map(|v| v.iter().fold(0, |a, b| a ^ b))
            .collect();
        folded.sort_unstable();
        acc = acc.wrapping_add(folded[folded.len() / 2]);
    }
    acc
}

/// Word-parallel gate evaluation over a 256 KiB array of nets.
fn bits_kernel(rounds: u64) -> u64 {
    let n = 1usize << 15;
    let mut nets: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut acc = 0u64;
    for r in 0..rounds as usize {
        for i in 2..n {
            let a = nets[(i * 7 + r) & (n - 1)];
            let b = nets[i - 1];
            nets[i] = if i & 1 == 0 { a & !b } else { a ^ b } | (nets[i - 2] >> 1);
        }
        acc ^= nets[n - 1];
    }
    acc
}

/// Runs one reference chunk; returns its wall seconds.
pub fn reference_chunk() -> f64 {
    let start = Instant::now();
    std::hint::black_box(alu_kernel(500_000) ^ alloc_kernel(14) ^ bits_kernel(25));
    start.elapsed().as_secs_f64()
}

/// Wall and reference seconds of a sequence of operations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    /// Summed wall seconds of the operations (calibration excluded).
    pub wall_s: f64,
    /// Summed reference seconds of the operations.
    pub reference_s: f64,
}

impl Timing {
    /// Wall seconds per reference second: above 1 the host ran slower
    /// than nominal.
    pub fn slowdown(&self) -> f64 {
        self.wall_s / self.reference_s
    }

    /// Adds another timing.
    pub fn add(&mut self, other: Timing) {
        self.wall_s += other.wall_s;
        self.reference_s += other.reference_s;
    }
}

/// A sequence of timed operations, each followed by a reference chunk.
/// Chunks run inside `bench.calibrate` spans of the given tracer, so a
/// traced run can tell benchmark overhead from program time.
pub struct Paced<'t> {
    tracer: &'t Tracer,
    parent: SpanId,
    last_chunk_s: f64,
    ops: Vec<Timing>,
}

impl<'t> Paced<'t> {
    /// Starts a sequence with its first reference chunk (after a warm-up
    /// chunk whose time is dropped).
    pub fn start(tracer: &'t Tracer, parent: SpanId) -> Self {
        let mut paced = Self {
            tracer,
            parent,
            last_chunk_s: 0.0,
            ops: Vec::new(),
        };
        paced.chunk();
        paced.last_chunk_s = paced.chunk();
        paced
    }

    fn chunk(&self) -> f64 {
        self.tracer
            .span("bench.calibrate", self.parent, |_| reference_chunk())
    }

    /// The median of the chunks run after an operation of `wall_s`
    /// seconds: one per `CHUNK_SHARE` of its length (at least one, at most
    /// `MAX_CHUNKS`), so a long operation's speed rests on more samples.
    fn chunks_after(&self, wall_s: f64) -> f64 {
        let n = ((wall_s * CHUNK_SHARE / NOMINAL_CHUNK_S).ceil() as usize).clamp(1, MAX_CHUNKS);
        let times: Vec<f64> = (0..n).map(|_| self.chunk()).collect();
        median(&times)
    }

    /// Times `f` as one operation, then runs the next reference chunk.
    pub fn op<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (cpu0, children0) = cpu_time();
        let start = Instant::now();
        let out = f();
        let wall_s = start.elapsed().as_secs_f64();
        let (cpu1, children1) = cpu_time();
        let chunk_s = self.chunks_after(wall_s);
        let busy = ((cpu1 - cpu0 + children1 - children0) / wall_s).clamp(0.0, 1.0);
        let speed = (NOMINAL_CHUNK_S * 2.0 / (self.last_chunk_s + chunk_s)).powf(SENSITIVITY);
        let reference_s = wall_s * (1.0 - busy) + wall_s * busy * speed;
        self.last_chunk_s = chunk_s;
        self.ops.push(Timing {
            wall_s,
            reference_s,
        });
        out
    }

    /// The operations timed since the last `take`, one by one; the
    /// sequence continues from the last chunk.
    pub fn take(&mut self) -> Vec<Timing> {
        std::mem::take(&mut self.ops)
    }

    /// The summed timing of the operations since the last `take`.
    pub fn take_total(&mut self) -> Timing {
        total(&self.take())
    }
}

/// The summed timing of some operations.
pub fn total(ops: &[Timing]) -> Timing {
    let mut sum = Timing::default();
    for op in ops {
        sum.add(*op);
    }
    sum
}

/// The median wall and the median reference seconds of some timings.
pub fn median_timing(timings: &[Timing]) -> Timing {
    let wall: Vec<f64> = timings.iter().map(|t| t.wall_s).collect();
    let reference: Vec<f64> = timings.iter().map(|t| t.reference_s).collect();
    Timing {
        wall_s: median(&wall),
        reference_s: median(&reference),
    }
}

/// The timing of the same operations run in several rounds, in the same
/// order each round: per operation the median over rounds, summed.  A
/// burst of host contention that hits one round of an operation then does
/// not count.
pub fn median_over_rounds(rounds: &[Vec<Timing>]) -> Timing {
    let ops = rounds.iter().map(Vec::len).max().unwrap_or(0);
    let per_op: Vec<Timing> = (0..ops)
        .map(|i| {
            median_timing(
                &rounds
                    .iter()
                    .filter_map(|r| r.get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    total(&per_op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_time_scales_with_the_bracketing_chunks() {
        let tracer = Tracer::new(true);
        let mut paced = Paced::start(&tracer, SpanId::ROOT);
        paced.op(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        paced.op(|| ());
        let ops = paced.take();
        assert_eq!(ops.len(), 2);
        let timing = total(&ops);
        assert!(timing.wall_s >= 0.005);
        assert!(timing.slowdown().is_finite() && timing.slowdown() > 0.0);
        assert_eq!(paced.take_total(), Timing::default());
        // Warm-up, start, and one chunk after each op.
        assert_eq!(tracer.spans().len(), 4);
    }

    #[test]
    fn rounds_take_each_operation_s_median() {
        let t = |wall_s, reference_s| Timing {
            wall_s,
            reference_s,
        };
        let rounds = vec![
            vec![t(1.0, 2.0), t(10.0, 10.0)],
            vec![t(5.0, 1.0), t(11.0, 30.0)],
            vec![t(2.0, 3.0), t(90.0, 12.0)],
        ];
        assert_eq!(median_over_rounds(&rounds), t(2.0 + 11.0, 2.0 + 12.0));
        assert_eq!(median_over_rounds(&[]), Timing::default());
    }
}
