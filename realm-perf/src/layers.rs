//! The per-layer split: which crate each simulated component belongs to,
//! and the counts each layer reports.
//!
//! The classifier is total over the three workloads and strict beyond
//! them: an instance name it does not know is an error, so a rename in the
//! library cannot silently move host time from one layer to another.

use axi_sim::{ComponentProfile, KernelStats, TelemetrySink, Topology};

/// A simulator layer, named after the crate that implements it. The
/// kernel itself (`axi-sim`) is not a component layer: its time is what
/// remains of a run once every component's ticks are accounted for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `axi-conformance`: passive protocol monitors.
    Conformance,
    /// `axi-realm`: REALM units.
    Realm,
    /// `axi-xbar`: the crossbar.
    Xbar,
    /// `axi-mem`: memories, cache, DRAM and the MMIO register file.
    Mem,
    /// `axi-traffic`: the core and DMA manager models.
    Traffic,
}

/// Every component layer, in report order.
pub const LAYERS: [Layer; 5] = [
    Layer::Conformance,
    Layer::Realm,
    Layer::Xbar,
    Layer::Mem,
    Layer::Traffic,
];

/// Ports the workloads attach protocol monitors to.
const MONITORED_PORTS: [&str; 8] = [
    "core",
    "core.xbar",
    "dma",
    "dma.xbar",
    "llc",
    "spm",
    "cfgreg",
    "dram",
];

impl Layer {
    /// The metric prefix of this layer.
    pub fn key(self) -> &'static str {
        match self {
            Layer::Conformance => "conformance",
            Layer::Realm => "realm",
            Layer::Xbar => "xbar",
            Layer::Mem => "mem",
            Layer::Traffic => "traffic",
        }
    }

    fn index(self) -> usize {
        LAYERS
            .iter()
            .position(|&l| l == self)
            .expect("LAYERS lists every layer")
    }
}

/// `true` if `s` is `prefix` followed by a `0x`-prefixed hex address.
fn at_address(s: &str, prefix: &str) -> bool {
    s.strip_prefix(prefix)
        .and_then(|rest| rest.strip_prefix("0x"))
        .is_some_and(|hex| !hex.is_empty() && hex.chars().all(|c| c.is_ascii_hexdigit()))
}

/// `true` for the crossbar's `xbar<managers>x<subordinates>` name.
fn is_xbar_name(s: &str) -> bool {
    let Some(dims) = s.strip_prefix("xbar") else {
        return false;
    };
    let Some((m, n)) = dims.split_once('x') else {
        return false;
    };
    let digits = |d: &str| !d.is_empty() && d.chars().all(|c| c.is_ascii_digit());
    digits(m) && digits(n)
}

/// Maps one component to its layer from its instance name and whether the
/// topology shows it as an observer. Monitors reuse their port's name
/// ("core", "dma"), so the observer flag separates them from the managers.
pub fn classify(name: &str, observer: bool) -> Result<Layer, String> {
    let layer = if observer {
        MONITORED_PORTS
            .contains(&name)
            .then_some(Layer::Conformance)
    } else if name == "core" || name == "dma" {
        Some(Layer::Traffic)
    } else if name == "realm.core" || name == "realm.dma" {
        Some(Layer::Realm)
    } else if is_xbar_name(name) {
        Some(Layer::Xbar)
    } else if name == "cache"
        || name == "mmio"
        || at_address(name, "mem@")
        || at_address(name, "dram@")
    {
        Some(Layer::Mem)
    } else {
        None
    };
    layer.ok_or_else(|| {
        let role = if observer { "observer" } else { "component" };
        format!("unknown {role} name {name:?}: add it to the layer classifier")
    })
}

/// Classifies every component of a system, in registration order.
pub fn classify_all(topology: &Topology) -> Result<Vec<Layer>, String> {
    topology
        .components
        .iter()
        .map(|c| classify(&c.name, c.is_observer()))
        .collect()
}

/// Everything one simulation contributes to the per-layer metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerStats {
    /// Simulated cycles advanced (executed plus skipped).
    pub cycles: u64,
    /// Cycles fast-forwarded over.
    pub cycles_skipped: u64,
    /// Component visits per layer, indexed like [`LAYERS`].
    pub visits: [u64; 5],
    /// Profiler wall nanoseconds per layer (0 in an untraced build).
    pub wall_ns: [u64; 5],
    /// Data beats that left a REALM unit downstream.
    pub granted_beats: u64,
    /// Cycles REALM units held their manager isolated.
    pub isolated_cycles: u64,
    /// Crossbar AR and AW grants.
    pub xbar_grants: u64,
    /// Crossbar manager-port blocked cycles plus subordinate W stalls.
    pub xbar_stall_cycles: u64,
    /// Data beats served by every memory-layer component.
    pub mem_beats: u64,
    /// LLC line lookups that hit / missed.
    pub llc_hits: u64,
    /// See `llc_hits`.
    pub llc_misses: u64,
    /// Dirty LLC lines written back.
    pub writebacks: u64,
    /// DRAM accesses that hit / missed the open row.
    pub row_hits: u64,
    /// See `row_hits`.
    pub row_misses: u64,
}

fn counter(telemetry: &TelemetrySink, key: &str) -> Result<u64, String> {
    telemetry
        .get_counter(key)
        .ok_or_else(|| format!("telemetry counter {key:?} missing"))
}

/// Sums every counter `<prefix>.<anything>.<suffix>`.
fn sum_matching(telemetry: &TelemetrySink, prefix: &str, suffix: &str) -> u64 {
    telemetry
        .counters()
        .iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

impl LayerStats {
    /// Gathers one finished simulation's layer counts from the public
    /// introspection surfaces: the self-profiler's visits (and wall time,
    /// when built with it), the kernel counters, and the telemetry
    /// registry.
    pub fn collect(
        layers: &[Layer],
        profile: &[ComponentProfile],
        kernel: &KernelStats,
        telemetry: &TelemetrySink,
    ) -> Result<Self, String> {
        if layers.len() != profile.len() {
            return Err(format!(
                "{} classified components but {} profiled",
                layers.len(),
                profile.len()
            ));
        }
        let mut s = LayerStats {
            cycles: kernel.cycles_total(),
            cycles_skipped: kernel.cycles_skipped,
            ..Default::default()
        };
        for (&layer, p) in layers.iter().zip(profile) {
            s.visits[layer.index()] += p.visits;
            s.wall_ns[layer.index()] += p.wall_ns;
            let n = p.name.as_str();
            match layer {
                Layer::Realm => {
                    let port = n.strip_prefix("realm.").unwrap_or(n);
                    s.isolated_cycles += counter(telemetry, &format!("{n}.isolated_cycles"))?;
                    for channel in ["r_beats", "w_beats"] {
                        s.granted_beats +=
                            counter(telemetry, &format!("conf.{port}.xbar.{channel}"))?;
                    }
                }
                Layer::Xbar => {
                    let m = format!("{n}.m");
                    s.xbar_grants += sum_matching(telemetry, &m, ".ar_grants")
                        + sum_matching(telemetry, &m, ".aw_grants");
                    s.xbar_stall_cycles += sum_matching(telemetry, &m, ".blocked_cycles")
                        + sum_matching(telemetry, &format!("{n}.s"), ".w_stall_cycles");
                }
                Layer::Mem if n == "mmio" => {}
                Layer::Mem => {
                    s.mem_beats += counter(telemetry, &format!("{n}.beats_served"))?;
                    if n == "cache" {
                        s.llc_hits += counter(telemetry, "cache.hits")?;
                        s.llc_misses += counter(telemetry, "cache.misses")?;
                        s.writebacks += counter(telemetry, "cache.writebacks")?;
                    } else if n.starts_with("dram@") {
                        s.row_hits += counter(telemetry, &format!("{n}.row_hits"))?;
                        s.row_misses += counter(telemetry, &format!("{n}.row_misses"))?;
                    }
                }
                Layer::Conformance | Layer::Traffic => {}
            }
        }
        Ok(s)
    }

    /// Adds another simulation's counts (one workload pass sums its
    /// systems).
    pub fn add(&mut self, o: &LayerStats) {
        self.cycles += o.cycles;
        self.cycles_skipped += o.cycles_skipped;
        for i in 0..LAYERS.len() {
            self.visits[i] += o.visits[i];
            self.wall_ns[i] += o.wall_ns[i];
        }
        self.granted_beats += o.granted_beats;
        self.isolated_cycles += o.isolated_cycles;
        self.xbar_grants += o.xbar_grants;
        self.xbar_stall_cycles += o.xbar_stall_cycles;
        self.mem_beats += o.mem_beats;
        self.llc_hits += o.llc_hits;
        self.llc_misses += o.llc_misses;
        self.writebacks += o.writebacks;
        self.row_hits += o.row_hits;
        self.row_misses += o.row_misses;
    }

    /// Visits of one layer.
    pub fn layer_visits(&self, layer: Layer) -> u64 {
        self.visits[layer.index()]
    }

    /// Profiler wall nanoseconds of one layer.
    pub fn layer_wall_ns(&self, layer: Layer) -> u64 {
        self.wall_ns[layer.index()]
    }

    /// Visits across every layer.
    pub fn total_visits(&self) -> u64 {
        self.visits.iter().sum()
    }
}

/// `part / (part + rest)`, or 0 when both are 0 (the workload has no such
/// component).
pub fn share(part: u64, rest: u64) -> f64 {
    let total = part + rest;
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_separates_monitors_from_managers() {
        assert_eq!(classify("core", false), Ok(Layer::Traffic));
        assert_eq!(classify("core", true), Ok(Layer::Conformance));
        assert_eq!(classify("dma.xbar", true), Ok(Layer::Conformance));
        assert_eq!(classify("xbar2x3", false), Ok(Layer::Xbar));
        assert_eq!(classify("mem@0x80000000", false), Ok(Layer::Mem));
        assert_eq!(classify("dram@0x80000000", false), Ok(Layer::Mem));
    }

    #[test]
    fn classifier_rejects_unknown_names() {
        for (name, observer) in [
            ("component", false),
            ("core.xbar", false),
            ("realm.core", true),
            ("xbar", false),
            ("xbar2y3", false),
            ("mem@", false),
            ("mem@0xzz", false),
            ("monitor", true),
        ] {
            assert!(
                classify(name, observer).is_err(),
                "{name} observer={observer}"
            );
        }
    }

    #[test]
    fn share_of_nothing_is_zero() {
        assert_eq!(share(0, 0), 0.0);
        assert_eq!(share(3, 1), 0.75);
    }
}
