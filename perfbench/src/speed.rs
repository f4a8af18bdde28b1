//! Host-speed calibration.
//!
//! The benchmark shares its CPU with work it cannot see: on a virtual
//! machine, whatever runs on the other hardware thread of the same core
//! can slow this process by 1.5–2.5× for seconds to minutes at a time,
//! while leaving a plain ALU loop untouched. Taking each operation's
//! fastest repeat removes short stalls but not a slowdown that lasts a
//! whole run.
//!
//! So every few milliseconds, between operations, a [`Meter`] runs a
//! fixed reference kernel — hashing and sorting, the kind of branchy,
//! cache-resident integer work the search and the simulator do — and
//! each timed operation is scaled by [`REFERENCE_MS`] over the kernel
//! time measured on either side of it. The result is the operation's
//! time on a host where the kernel takes [`REFERENCE_MS`]. The kernel
//! calls nothing in the workspace, so a change to the program under
//! test moves the scaled times exactly as it moves the raw ones.

use std::collections::HashMap;
use std::time::Instant;

/// Kernel time, in ms, that scaled times are expressed against: about
/// what one probe takes on an uncontended core of a 2.1 GHz Xeon
/// (Sapphire Rapids) virtual machine, so scaled times there read close
/// to wall-clock ones.
pub const REFERENCE_MS: f64 = 0.1;
/// Wall-clock time between kernel probes.
const PROBE_EVERY_S: f64 = 0.02;
/// Kernel passes per probe; the fastest counts, so an interrupt during
/// one pass does not skew the scale.
const PASSES: usize = 2;
/// Distinct keys the kernel's hash map cycles through.
const KEYS: u64 = 8192;
/// Map updates per kernel pass.
const UPDATES: usize = 6000;
/// Values sorted per kernel pass.
const SORTED: usize = 2048;

/// The reference kernel and its working set, allocated once.
#[derive(Debug)]
struct Kernel {
    map: HashMap<u64, u64>,
    values: Vec<u64>,
    sink: u64,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            map: HashMap::with_capacity(KEYS as usize),
            values: vec![0; SORTED],
            sink: 0,
        }
    }

    /// One pass; returns its wall-clock ms. The work is the same on
    /// every pass.
    fn pass(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..UPDATES as u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *self.map.entry(x % KEYS).or_insert(0) += i;
        }
        for v in self.values.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        self.values.sort_unstable();
        self.sink ^= self.values[SORTED / 2] ^ self.map.len() as u64;
        std::hint::black_box(self.sink);
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// The fastest of [`PASSES`] passes, in ms.
    fn probe(&mut self) -> f64 {
        (0..PASSES).map(|_| self.pass()).fold(f64::INFINITY, f64::min)
    }
}

/// What a pending measurement belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Slot {
    /// One execution of operation `i`.
    Op(usize),
    /// One repetition of the run's set-up.
    Setup,
}

/// Scales raw timings by the host speed measured around them.
#[derive(Debug)]
pub struct Meter {
    kernel: Kernel,
    /// Kernel time of the latest probe, in ms.
    last_ms: f64,
    last_at: Instant,
    /// Timings since the latest probe: slot and raw value.
    pending: Vec<(Slot, f64)>,
    /// Every probe's kernel time, in ms.
    probes: Vec<f64>,
}

impl Default for Meter {
    fn default() -> Meter {
        let mut kernel = Kernel::new();
        // Warm the map's table and the code before the first probe.
        kernel.pass();
        let last_ms = kernel.probe();
        Meter {
            kernel,
            last_ms,
            last_at: Instant::now(),
            pending: Vec::new(),
            probes: vec![last_ms],
        }
    }
}

impl Meter {
    /// Records a raw timing. Returns the timings a probe has just
    /// settled, scaled, when one was due.
    pub fn record(&mut self, slot: Slot, raw: f64) -> Vec<(Slot, f64)> {
        self.pending.push((slot, raw));
        if self.last_at.elapsed().as_secs_f64() >= PROBE_EVERY_S {
            self.settle()
        } else {
            Vec::new()
        }
    }

    /// Probes now and scales every pending timing by the mean kernel
    /// time of the probes before and after it.
    pub fn settle(&mut self) -> Vec<(Slot, f64)> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let now_ms = self.kernel.probe();
        self.probes.push(now_ms);
        let scale = scale(self.last_ms, now_ms);
        self.last_ms = now_ms;
        self.last_at = Instant::now();
        self.pending
            .drain(..)
            .map(|(slot, raw)| (slot, raw * scale))
            .collect()
    }

    /// Every probe's kernel time so far, in ms.
    pub fn probes(&self) -> &[f64] {
        &self.probes
    }
}

/// The factor taking a time measured between probes of `before_ms` and
/// `after_ms` to the reference host.
pub fn scale(before_ms: f64, after_ms: f64) -> f64 {
    REFERENCE_MS / ((before_ms + after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_mean_probe() {
        assert_eq!(scale(REFERENCE_MS, REFERENCE_MS), 1.0);
        // A host twice as slow halves the raw time.
        assert_eq!(scale(2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS), 0.5);
        assert_eq!(scale(0.1, 0.3), REFERENCE_MS / 0.2);
    }

    #[test]
    fn settle_scales_every_pending_timing_once() {
        let mut m = Meter::default();
        m.pending.push((Slot::Op(3), 2.0));
        m.pending.push((Slot::Setup, 5.0));
        let before = m.last_ms;
        let settled = m.settle();
        let after = *m.probes().last().unwrap();
        let s = scale(before, after);
        assert_eq!(settled, vec![(Slot::Op(3), 2.0 * s), (Slot::Setup, 5.0 * s)]);
        assert!(m.settle().is_empty());
        assert_eq!(m.probes().len(), 2);
    }
}
