//! Benchmark plumbing that is independent of the program under test:
//! seeded sampling, order statistics, op accounting, layer timing and
//! host probes.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// SplitMix64. The benchmark draws its cells and configs with its own
/// generator so the draws cannot change when a crate under test does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Median, quartiles and p90 of a sample, with its size.
#[derive(Debug, Clone, Copy)]
pub struct Dist {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
}

impl Dist {
    /// Order statistics by linear interpolation between closest ranks.
    pub fn of(mut xs: Vec<f64>) -> Dist {
        xs.sort_by(f64::total_cmp);
        let q = |p: f64| -> f64 {
            if xs.is_empty() {
                return f64::NAN;
            }
            let pos = p * (xs.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
        };
        Dist {
            n: xs.len(),
            p25: q(0.25),
            p50: q(0.5),
            p75: q(0.75),
            p90: q(0.9),
        }
    }
}

impl Display for Dist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} p25={:.4} p50={:.4} p75={:.4} p90={:.4}",
            self.n, self.p25, self.p50, self.p75, self.p90
        )
    }
}

pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Attempted and failed operations. A trap, a panic, a wrong checksum,
/// a verifier error or a non-repeating simulation is one failed op.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Run one operation; an `Err` or a panic counts it as failed.
    pub fn op<T>(
        &mut self,
        what: impl Display,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += 1;
        let err = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(e)) => e,
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string()),
        };
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}: {err}");
        None
    }
}

/// Host time, call count and event count accumulated per layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    pub ns: u64,
    pub calls: u64,
    pub events: u64,
}

/// Times every call into a layer of the program. Each call also runs
/// under an `swpf_obs` span of the layer's name, and each event count
/// is mirrored into an `swpf_obs` counter, so a traced run exports the
/// same boundaries as a chrome trace. With tracing off the span costs
/// one relaxed atomic load.
#[derive(Default)]
pub struct Ledger {
    acc: BTreeMap<&'static str, Acc>,
}

impl Ledger {
    /// Call `f` as one call into `layer`; returns its result and its
    /// host time in nanoseconds.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let span = swpf_obs::span(layer);
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        drop(span);
        self.add(layer, ns, 0);
        self.acc.get_mut(layer).expect("just added").calls += 1;
        (out, ns)
    }

    /// Credit `layer` with `n` units of work (instructions, accesses,
    /// prefetch sites, ...).
    pub fn events(&mut self, layer: &'static str, n: u64) {
        swpf_obs::count(layer, n);
        self.add(layer, 0, n);
    }

    /// Add derived time and events to `layer` without a call.
    pub fn add(&mut self, layer: &'static str, ns: u64, events: u64) {
        let a = self.acc.entry(layer).or_default();
        a.ns += ns;
        a.events += events;
    }

    pub fn get(&self, layer: &str) -> Acc {
        self.acc.get(layer).copied().unwrap_or_default()
    }

    /// Mean host time per call, in `unit_ns` units.
    pub fn per_call(&self, layer: &str, unit_ns: f64) -> f64 {
        let a = self.get(layer);
        a.ns as f64 / a.calls as f64 / unit_ns
    }

    /// Host nanoseconds per event.
    pub fn per_event(&self, layer: &str) -> f64 {
        let a = self.get(layer);
        a.ns as f64 / a.events as f64
    }
}

/// Host-drift probe: a fixed, branchy reference computation that lives
/// only in this file — an 8-way set-associative LRU cache model over a
/// synthetic stream mixing a hot region with a cold one. Its time moves
/// only with the host. Median of three passes, in milliseconds.
pub fn host_ref_ms() -> f64 {
    const SETS: usize = 256;
    const WAYS: usize = 8;
    const ACCESSES: u64 = 3_000_000;
    let mut passes = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let mut tags = vec![u64::MAX; SETS * WAYS];
        let mut stamps = vec![0u64; SETS * WAYS];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut hits = 0u64;
        for i in 0..ACCESSES {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let line = if x >> 62 == 0 {
                (x >> 20) % 65_536
            } else {
                (x >> 24) % 2_048
            };
            let base = (line as usize % SETS) * WAYS;
            let set = base..base + WAYS;
            if let Some(w) = set.clone().find(|&w| tags[w] == line) {
                hits += 1;
                stamps[w] = i;
            } else {
                let victim = set.min_by_key(|&w| stamps[w]).expect("ways > 0");
                tags[victim] = line;
                stamps[victim] = i;
            }
        }
        black_box(hits);
        passes.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Dist::of(passes).p50
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Pin glibc's mmap threshold at its initial 128 KiB. By default glibc
/// raises the threshold to the size of each large block freed, after
/// which blocks of that size come from the heap and stay resident once
/// freed; which sizes get retained then depends on the seeded order of
/// the runs' input copies, and peak RSS moved by 20% from seed to seed.
/// With the threshold pinned, every input copy is mapped and unmapped,
/// so `peak_rss_mb` follows the memory actually live.
pub fn fix_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only changes allocator tuning; it is called
        // first thing in `main`, before any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}
