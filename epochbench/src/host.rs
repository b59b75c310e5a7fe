//! The host record attached to every result: what the numbers were
//! measured on, including how much parallel capacity the box really has.

use crate::json::Json;
use std::hint::black_box;
use std::time::Instant;

/// Fixed work for the calibration burn: a dependent multiply-xorshift
/// chain no compiler can shorten, about 50 ms on a current core.
const BURN_STEPS: u64 = 40_000_000;

fn burn(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..BURN_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    x
}

pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub simd: &'static str,
    /// `2 × t(one thread) / t(two threads, same work each)`: 2.0 on two
    /// free cores, about 1.0 when the threads share one.
    pub effective_cores: f64,
    pub burn_one_ms: f64,
    pub burn_two_ms: f64,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

impl Host {
    pub fn record() -> Host {
        let start = Instant::now();
        black_box(burn(black_box(1)));
        let one = start.elapsed().as_secs_f64();
        let start = Instant::now();
        std::thread::scope(|scope| {
            let a = scope.spawn(|| burn(black_box(2)));
            let b = scope.spawn(|| burn(black_box(3)));
            black_box(a.join().unwrap_or(0) ^ b.join().unwrap_or(0));
        });
        let two = start.elapsed().as_secs_f64();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            simd: setstream_hash::backend().name(),
            effective_cores: 2.0 * one / two,
            burn_one_ms: one * 1e3,
            burn_two_ms: two * 1e3,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::from(self.nproc)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("simd_backend", Json::from(self.simd)),
            ("effective_cores", Json::from(self.effective_cores)),
            ("burn_one_thread_ms", Json::from(self.burn_one_ms)),
            ("burn_two_threads_ms", Json::from(self.burn_two_ms)),
        ])
    }
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
