//! Host-speed probe: a fixed reference loop interleaved with the
//! simulation, so that host times can be scaled to a steady host speed.
//!
//! On a shared host the same simulation runs up to 1.6× slower for
//! seconds at a time while neighbours compete for the core. A short,
//! fixed reference slice run between two simulation chunks slows down
//! with it: on a shared two-core KVM guest a pass's host time and its
//! mean slice time correlate at 0.8–0.95. Dividing host times by the
//! speed factor, the mean slice time over its nominal time, takes most of
//! that drift out.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host seconds one reference slice takes on an undisturbed 2.1 GHz Xeon
/// (Sapphire Rapids) KVM guest; scaled times read as seconds on that
/// host.
pub const SLICE_NOMINAL_S: f64 = 250e-6;

/// Host time between two slices while a simulation runs.
const INTERVAL: Duration = Duration::from_millis(10);

/// Elements of the slice's working vector.
const SLICE_LEN: u64 = 8192;

/// The reference slice: xorshift values pushed through a small queue and
/// branchy mixing, then sorted. Deterministic, allocation-light and
/// cache-resident, like the simulator's own per-beat work.
fn reference_slice() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut values = Vec::with_capacity(SLICE_LEN as usize);
    let mut queue = std::collections::VecDeque::with_capacity(64);
    let mut acc = 0u64;
    for _ in 0..SLICE_LEN {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        values.push(x);
        if queue.len() == 64 {
            acc = acc.wrapping_add(queue.pop_front().unwrap_or(0));
        }
        queue.push_back(x);
        if x & 3 == 0 {
            acc ^= x >> 3;
        } else {
            acc = acc.rotate_left(5);
        }
    }
    values.sort_unstable();
    acc ^ values[values.len() / 2]
}

/// Accumulates reference-slice timings.
#[derive(Debug)]
pub struct Probe {
    last: Instant,
    slices: u32,
    slice_s: f64,
}

impl Probe {
    /// A probe with no samples yet.
    pub fn new() -> Self {
        Self {
            last: Instant::now(),
            slices: 0,
            slice_s: 0.0,
        }
    }

    /// Runs one slice now and returns its host seconds.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        black_box(reference_slice());
        let s = t.elapsed().as_secs_f64();
        self.slices += 1;
        self.slice_s += s;
        self.last = Instant::now();
        s
    }

    /// Runs a slice if the interval has passed since the last one; call it
    /// between two simulation chunks.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
    }

    /// Host seconds spent in slices so far.
    pub fn slice_s(&self) -> f64 {
        self.slice_s
    }

    /// How much slower than nominal the host ran over the samples taken
    /// (1.0 = nominal). A probe without samples takes one.
    pub fn speed_factor(&mut self) -> f64 {
        if self.slices == 0 {
            self.sample();
        }
        self.slice_s / f64::from(self.slices) / SLICE_NOMINAL_S
    }
}
