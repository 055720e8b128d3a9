//! The host-speed reference: a fixed piece of work read right before and
//! right after every set-up and every lap of a round, so that each timing
//! can be restated at one reference speed.
//!
//! The benchmark shares a few vCPUs of a host whose speed moves by 1.5×
//! or more within minutes, and the CPU time of a process moves with it
//! (the slowdown is not stolen time). A timing taken at a slow moment and
//! one taken at a fast moment differ by that factor, whatever the program
//! does. The reference kernel runs on the same thread, moments before and
//! after, so it slows by about the same factor; a timing divided by the
//! mean of the readings around it, times [`NOMINAL_SECS`], no longer
//! carries that factor.
//!
//! The kernel mixes the two kinds of work the program does: a sort and
//! linear-probe inserts over about 12 MB it allocated once, and short
//! strings formatted into a hash map and then a B-tree, which go through
//! the allocator.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// What one kernel run takes at reference speed: on the baseline host
/// (see README.md) it took 14–20 ms.
pub const NOMINAL_SECS: f64 = 0.015;

/// Keys sorted and inserted per run.
const KEYS: usize = 1 << 18;

/// Slots of the insert table (load factor 1/4).
const SLOTS: usize = 1 << 20;

/// Strings formatted per run, and the range their numbers come from.
const NAMES: u64 = 30_000;
const NAME_RANGE: u64 = 40_000;

/// Kernel runs per reading; the reading is their median.
const RUNS: usize = 3;

/// The reference kernel and its buffers.
pub struct Reference {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    table: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        let mut state = 0x5eed_u64;
        let keys: Vec<u64> = (0..KEYS)
            .map(|_| crate::workload::splitmix(&mut state) | 1)
            .collect();
        Reference {
            sorted: keys.clone(),
            keys,
            table: vec![0; SLOTS],
        }
    }
}

impl Reference {
    /// One run of the kernel; returns a checksum of its result.
    pub fn run(&mut self) -> u64 {
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        self.table.fill(0);
        let mask = SLOTS - 1;
        let mut probes = 0u64;
        for &k in &self.keys {
            let mut i = (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize & mask;
            while self.table[i] != 0 && self.table[i] != k {
                i = (i + 1) & mask;
                probes += 1;
            }
            self.table[i] = k;
        }
        let mut state = self.sorted[KEYS / 2];
        let mut counts: HashMap<String, u64> = HashMap::new();
        for i in 0..NAMES {
            let n = crate::workload::splitmix(&mut state) % NAME_RANGE;
            *counts.entry(format!("d{n}.example")).or_default() += i;
        }
        let ordered: BTreeMap<&String, &u64> = counts.iter().collect();
        std::hint::black_box(probes ^ ordered.len() as u64)
    }

    /// The median of [`RUNS`] timed runs, in seconds.
    pub fn secs(&mut self) -> f64 {
        let mut t: Vec<f64> = (0..RUNS)
            .map(|_| {
                let start = Instant::now();
                self.run();
                start.elapsed().as_secs_f64()
            })
            .collect();
        t.sort_by(f64::total_cmp);
        t[RUNS / 2]
    }
}

/// `secs` measured between reference readings `before` and `after`,
/// restated at reference speed.
pub fn at_reference(secs: f64, before: f64, after: f64) -> f64 {
    secs * NOMINAL_SECS / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scaling_is_proportional() {
        let mut r = Reference::default();
        let sum = r.run();
        assert_eq!(r.run(), sum);
        assert!(r.secs() > 0.0);
        // At reference speed a timing is unchanged; on a host half as fast
        // (both readings doubled) it is halved.
        assert_eq!(at_reference(2.0, NOMINAL_SECS, NOMINAL_SECS), 2.0);
        assert_eq!(
            at_reference(2.0, 1.5 * NOMINAL_SECS, 2.5 * NOMINAL_SECS),
            1.0
        );
    }
}
