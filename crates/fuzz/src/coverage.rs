//! The campaign's coverage signature: which behaviours a run reached.
//!
//! A signature is the sorted set of keys naming behaviour that happened,
//! read after the run from state the simulator already keeps — the hot
//! simulation path pays nothing for coverage. Three sources feed it:
//!
//! - every nonzero counter and gauge of the run's telemetry registry
//!   ([`Sim::telemetry`](axi_sim::Sim::telemetry)): protocol-rule hits
//!   and channel activity per monitored port (`conf.m0.rule.*`,
//!   `conf.m0.aw_bursts`), crossbar grants, lost arbitration and decode
//!   errors (`xbar2x1.m1.blocked_cycles`), REALM regulation events
//!   (`m0.realm.budget_exhaustions`) and memory service. `kernel.*`
//!   counters stay out: they describe how the run was executed, not what
//!   the system did, and differ between kernels;
//! - the occupied buckets of every telemetry histogram
//!   (`telemetry.{key}.b{bucket}`), so a completion landing in a new
//!   power-of-two latency bucket counts as new behaviour;
//! - every topology wire that carried a beat (`edge.{channel}[{index}]`,
//!   from [`ChannelPool::wire_activity`](axi_sim::ChannelPool::wire_activity)).
//!
//! Counts are deliberately not part of the signature: two runs that
//! exercise the same behaviours with different intensities match. The
//! counts themselves stay readable in the run's telemetry registry.

use std::collections::BTreeSet;

use axi_sim::{TelemetrySink, WireActivity};

/// A run's coverage signature (see the module docs).
#[derive(Debug)]
pub struct Coverage {
    keys: BTreeSet<String>,
}

impl Coverage {
    /// Collects the signature from a run's telemetry registry and wire
    /// activity.
    pub fn harvest(telemetry: &TelemetrySink, wires: &[WireActivity]) -> Self {
        let scalars = telemetry.counters().iter().chain(telemetry.gauges());
        let mut keys: BTreeSet<String> = scalars
            .filter(|(key, &n)| n > 0 && !key.starts_with("kernel."))
            .map(|(key, _)| key.clone())
            .collect();
        for (key, hist) in telemetry.histograms() {
            for (bucket, n) in hist.buckets() {
                if n > 0 {
                    keys.insert(format!("telemetry.{key}.b{bucket}"));
                }
            }
        }
        for wire in wires.iter().filter(|w| w.pushes > 0) {
            keys.insert(format!("edge.{}[{}]", wire.channel, wire.index));
        }
        Self { keys }
    }

    /// Every reached key, sorted.
    pub fn keys(&self) -> &BTreeSet<String> {
        &self.keys
    }

    /// Number of distinct keys reached.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the run reached nothing.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// A stable 64-bit hash of the signature (FNV-1a over the sorted
    /// keys) — a compact corpus-dedup token.
    pub fn signature_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for key in &self.keys {
            for byte in key.bytes().chain([0xff]) {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(channel: &'static str, index: usize, pushes: u64) -> WireActivity {
        WireActivity {
            channel,
            index,
            pushes,
        }
    }

    #[test]
    fn zero_counts_never_enter_the_signature() {
        let mut sink = TelemetrySink::new();
        sink.counter("a.zero", 0);
        sink.gauge("a.idle", 0);
        sink.counter("a.b", 1);
        sink.gauge("a.c", 3);
        sink.record("a.lat", 5);
        sink.counter("kernel.ticks_executed", 9);
        let cov = Coverage::harvest(&sink, &[wire("AW", 0, 0), wire("R", 2, 4)]);
        let keys: Vec<&str> = cov.keys().iter().map(String::as_str).collect();
        assert_eq!(keys, ["a.b", "a.c", "edge.R[2]", "telemetry.a.lat.b3"]);
    }

    #[test]
    fn signature_hash_ignores_counts_but_not_keys() {
        let mut a = TelemetrySink::new();
        a.counter("x", 1);
        a.gauge("y", 7);
        let mut b = TelemetrySink::new();
        b.counter("x", 100);
        b.gauge("y", 1);
        let hash = |sink: &TelemetrySink| Coverage::harvest(sink, &[]).signature_hash();
        assert_eq!(hash(&a), hash(&b));
        b.counter("z", 1);
        assert_ne!(hash(&a), hash(&b));
    }
}
