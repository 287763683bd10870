//! What the numbers were measured on: provenance (git, rustc, cores,
//! caches), peak memory of this process, and the start-of-run host
//! calibration that the roofline shares are divided by.

use crate::json::{Obj, Value};
use crate::stats;
use std::hint::black_box;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// First line of a command's stdout, or `None` when it cannot run or
/// fails (the driver's checkout is not a git repository).
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()
        .map(|l| l.trim().to_string())
}

/// One cache level of cpu0 as sysfs reports it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cache {
    pub level: u32,
    pub kind: String,
    pub bytes: u64,
}

fn parse_cache_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, mult) = match t.chars().last()? {
        'K' => (&t[..t.len() - 1], 1u64 << 10),
        'M' => (&t[..t.len() - 1], 1u64 << 20),
        'G' => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

pub fn caches() -> Vec<Cache> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if let (Ok(level), Some(bytes)) = (level.trim().parse(), parse_cache_size(&size)) {
            out.push(Cache {
                level,
                kind: kind.trim().to_string(),
                bytes,
            });
        }
    }
    out
}

fn cache_bytes(caches: &[Cache], level: u32) -> Option<u64> {
    caches
        .iter()
        .filter(|c| c.level == level && c.kind != "Instruction")
        .map(|c| c.bytes)
        .max()
}

/// `VmHWM` (peak resident set) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Keeps every core out of its idle state for as long as it lives:
/// `nproc - 1` threads that do nothing but `yield_now`, so each hands its
/// core to any benchmark thread that becomes runnable there at the next
/// yield (at least one benchmark thread is always running, so that many
/// cover every core).
///
/// Why: on this class of host (a 2-vCPU microVM) waking a thread on an
/// idle core mostly costs 100-1000 us and moves with the hypervisor's load
/// (`host.idle_wake_us` is the measured round trip). The program pays
/// it wherever one thread waits for another: `query_batch` on every call
/// with two or more stale rows (the thread pool's worker sleeps between
/// calls), the rank threads of the distributed trainer at every sync.
/// Left in, it is 5-12 times the rest of a batched query and a fifth of
/// a 2-rank epoch, and the run-to-run spread was 0.7-3.1 of the median
/// on the serving metrics and 0.3 on the distributed epoch (README,
/// "Noise floor"); no bound can sit on that. It is the same measure as
/// running a benchmark with deep idle states disabled. The work, the
/// locks and the dispatches themselves stay in every timing.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (1..nproc())
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Relaxed: the flag publishes no other data.
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // The loop above cannot panic; nothing to report.
            let _ = t.join();
        }
    }
}

/// Median round trip, in us, of waking a thread that sleeps on a
/// condition variable and sleeping until it answers: two wake-ups on an
/// idle core, which is what one thread-pool dispatch costs when the
/// pool's worker sleeps. The caller keeps busy for `IDLE` before each
/// round, as the serving client does between dispatches, so the other
/// core has gone idle every time. Measured before `KeepAwake` starts: it
/// is the cost `KeepAwake` takes out of the run.
fn idle_wake_us() -> f64 {
    const ROUNDS: usize = 200;
    const IDLE: Duration = Duration::from_micros(200);
    // Odd: the helper's turn; even: the caller's; `u64::MAX`: stop.
    let baton = Arc::new((Mutex::new(0u64), Condvar::new()));
    let helper = {
        let baton = Arc::clone(&baton);
        std::thread::spawn(move || {
            let (turn, changed) = &*baton;
            let mut t = turn.lock().expect("neither side panics holding the lock");
            loop {
                while *t % 2 == 0 {
                    t = changed
                        .wait(t)
                        .expect("neither side panics holding the lock");
                }
                if *t == u64::MAX {
                    return;
                }
                *t += 1;
                changed.notify_all();
            }
        })
    };
    let (turn, changed) = &*baton;
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let busy = Instant::now();
            while busy.elapsed() < IDLE {
                std::hint::spin_loop();
            }
            let start = Instant::now();
            let mut t = turn.lock().expect("neither side panics holding the lock");
            *t += 1;
            changed.notify_all();
            while *t % 2 == 1 {
                t = changed
                    .wait(t)
                    .expect("neither side panics holding the lock");
            }
            drop(t);
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    *turn.lock().expect("neither side panics holding the lock") = u64::MAX;
    changed.notify_all();
    helper.join().expect("helper thread");
    stats::median(&samples)
}

/// Provenance block written into every output and trace file.
pub fn provenance(seed: u64, ranks: usize) -> Obj {
    let sha = first_line("git", &["rev-parse", "HEAD"]);
    let dirty = first_line("git", &["status", "--porcelain"]).map(|l| !l.is_empty());
    let cache_list: Vec<Value> = caches()
        .iter()
        .map(|c| {
            Obj::new()
                .put("level", c.level as u64)
                .put("type", c.kind.as_str())
                .put("bytes", c.bytes)
                .build()
        })
        .collect();
    let n = nproc();
    Obj::new()
        .put("git_sha", sha.unwrap_or_else(|| "unknown".into()))
        .put("git_dirty", dirty.map(Value::Bool).unwrap_or(Value::Null))
        .put(
            "rustc",
            first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        )
        .put("nproc", n)
        .put("ranks", ranks)
        // More rank threads than cores: wall-clock of the dist phases is
        // time-sliced and `core.dist_vs_single_ratio` is not valid.
        .put("oversubscribed", ranks > n)
        .put("cpu0_caches", cache_list)
        .put("seed", seed)
}

/// Host calibration: sustainable bandwidth and multiply-add rate of
/// *this build* (baseline x86-64 codegen, the same flags the kernels are
/// compiled with), all cores busy.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    pub triad_gbps: f64,
    /// Bytes of the three triad arrays together.
    pub triad_bytes: u64,
    /// The reported last-level cache holds all three arrays, so the
    /// triad figure is cache bandwidth, not DRAM bandwidth.
    pub triad_cache_resident: bool,
    pub fma_gflops: f64,
    pub idle_wake_us: f64,
    pub fma_lanes: usize,
    pub fma_iters: usize,
    pub threads: usize,
}

impl Calibration {
    pub fn to_json(self) -> Obj {
        Obj::new()
            .put("triad_gbps", self.triad_gbps)
            .put("triad_bytes", self.triad_bytes)
            .put(
                "triad_label",
                if self.triad_cache_resident {
                    "cache-resident"
                } else {
                    "dram"
                },
            )
            .put("fma_gflops", self.fma_gflops)
            .put("idle_wake_us", self.idle_wake_us)
            .put("fma_lanes_per_thread", self.fma_lanes)
            .put("fma_iters_per_thread", self.fma_iters)
            .put("threads", self.threads)
    }
}

const FMA_LANES: usize = 48;

/// `acc = acc * a + b` over `FMA_LANES` independent f32 accumulators
/// that stay in registers: 2 flops per lane per iteration.
fn fma_kernel(iters: usize) -> [f32; FMA_LANES] {
    let a = black_box(0.999_999_f32);
    let b = black_box(1.0e-7_f32);
    let mut acc = [1.0f32; FMA_LANES];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = *x * a + b;
        }
    }
    acc
}

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

pub fn calibrate() -> Calibration {
    let idle_wake_us = idle_wake_us();
    let threads = nproc();
    let caches = caches();
    let l2 = cache_bytes(&caches, 2).unwrap_or(1 << 20);
    let l3 = cache_bytes(&caches, 3).unwrap_or(0);

    // Triad a = b + s*c. Each array is at least 4x the private L2 and at
    // least 16 MiB; each thread owns one contiguous third of the work.
    let per_array = (4 * l2).max(16 << 20) as usize;
    let n = per_array / 4;
    let mut a = vec![0.0f32; n];
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let chunk = n.div_ceil(threads);
    let secs = best_of(5, || {
        std::thread::scope(|s| {
            for ((ac, bc), cc) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    let scale = black_box(3.0f32);
                    for ((x, &y), &z) in ac.iter_mut().zip(bc).zip(cc) {
                        *x = y + scale * z;
                    }
                });
            }
        });
        a[n / 2]
    });
    let triad_bytes = 3 * per_array as u64;
    let triad_gbps = triad_bytes as f64 / secs / 1e9;

    let iters = 4_000_000;
    let secs = best_of(3, || {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(move || fma_kernel(iters)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fma thread")[0])
                .sum::<f32>()
        })
    });
    let fma_gflops = (2 * FMA_LANES * iters * threads) as f64 / secs / 1e9;

    Calibration {
        triad_gbps,
        triad_bytes,
        triad_cache_resident: l3 >= triad_bytes,
        fma_gflops,
        idle_wake_us,
        fma_lanes: FMA_LANES,
        fma_iters: iters,
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_sysfs_suffixes() {
        assert_eq!(parse_cache_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_cache_size("2048K"), Some(2 << 20));
        assert_eq!(parse_cache_size("32M"), Some(32 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("big"), None);
    }

    #[test]
    fn data_cache_of_a_level_ignores_the_instruction_cache() {
        let caches = [
            Cache {
                level: 1,
                kind: "Data".into(),
                bytes: 48 << 10,
            },
            Cache {
                level: 1,
                kind: "Instruction".into(),
                bytes: 64 << 10,
            },
            Cache {
                level: 2,
                kind: "Unified".into(),
                bytes: 2 << 20,
            },
        ];
        assert_eq!(cache_bytes(&caches, 1), Some(48 << 10));
        assert_eq!(cache_bytes(&caches, 2), Some(2 << 20));
        assert_eq!(cache_bytes(&caches, 3), None);
    }

    #[test]
    fn fma_kernel_computes_the_recurrence() {
        // x <- x*a + b, three times, from 1.0.
        let (a, b) = (0.999_999_f32, 1.0e-7_f32);
        let want = ((1.0f32 * a + b) * a + b) * a + b;
        assert_eq!(fma_kernel(3), [want; FMA_LANES]);
    }

    #[test]
    fn idle_wake_round_trip_is_measured() {
        let us = idle_wake_us();
        assert!(us.is_finite() && us > 0.0, "{us}");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
