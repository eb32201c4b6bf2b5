//! The reference kernel that states every timing at one host speed.
//!
//! The host the benchmark shares with other tenants changes speed by up
//! to 1.6× over tens of seconds, while the timed thread's on-CPU time
//! stays equal to its wall time: the neighbours do not take the CPU
//! away, they slow it down. Sorting and hashing slow down with the
//! passes (correlation 0.65–0.92 across 110–240 back-to-back pairs),
//! while a plain arithmetic loop does not.
//!
//! So a fixed kernel, which is benchmark code and never the program's,
//! runs between every two timed intervals, and each interval is scaled
//! by `NOMINAL_S / kernel time`, the kernel time being the mean of the
//! kernel runs on either side of it. A metric in seconds therefore reads
//! "seconds on a host where this kernel takes `NOMINAL_S`". The parent
//! and a change run the same kernel, so the scaling cancels out of any
//! comparison between them.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// About the kernel's median time on a shared 2-vCPU Intel Xeon virtual
/// machine, so scaled times there read close to unscaled ones.
pub const NOMINAL_S: f64 = 0.0115;

const KEYS: usize = 1 << 17;

pub struct Reference {
    keys: Vec<u64>,
    scratch: Vec<u64>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    /// Every run's time, in order.
    runs_s: Vec<f64>,
}

impl Reference {
    /// Builds the kernel's fixed inputs and runs it twice; the first,
    /// cold run (it faults its buffers in) is not kept.
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let keys = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let mut reference = Reference {
            keys,
            scratch: Vec::with_capacity(KEYS),
            map: HashMap::with_capacity_and_hasher(KEYS, Default::default()),
            runs_s: Vec::new(),
        };
        reference.run();
        reference.runs_s.clear();
        reference.run();
        reference
    }

    /// One run of the kernel: sort the keys twice over, then insert and
    /// look up every key in a hash map.
    fn run(&mut self) {
        let t0 = Instant::now();
        let mut sum = 0u64;
        for _ in 0..2 {
            self.scratch.clear();
            self.scratch.extend_from_slice(&self.keys);
            self.scratch.sort_unstable();
            sum = sum.wrapping_add(self.scratch[KEYS / 2]);
        }
        self.map.clear();
        for (i, &k) in self.keys.iter().enumerate() {
            self.map.insert(k, i as u64);
        }
        for k in &self.keys {
            sum = sum.wrapping_add(self.map[k]);
        }
        std::hint::black_box(sum);
        self.runs_s.push(t0.elapsed().as_secs_f64());
    }

    /// Runs the kernel after an interval and returns the factor that
    /// states the interval at the nominal host speed.
    pub fn scale_after(&mut self) -> f64 {
        self.run();
        let around: f64 = self.runs_s.iter().rev().take(2).sum::<f64>() / 2.0;
        NOMINAL_S / around
    }

    /// The median time of the kernel's runs so far.
    pub fn median_s(&self) -> f64 {
        crate::harness::median(self.runs_s.iter().copied())
    }
}
