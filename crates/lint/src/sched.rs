//! Pass C: static dependence analysis — the evaluation schedule.
//!
//! Consumes the same inputs as Pass A — a [`Topology`] (component ports
//! and wires) plus the [`SystemModel`]'s combinational couplings — and
//! builds the full intra-cycle dependence graph:
//!
//! - **wire edges** from `PortDecl`/`PortDir` (driver → consumer, one per
//!   shared wire; observers are folded between cycles, never scheduled
//!   within one, so they sink no edge),
//! - **comb edges** from the system model's declared zero-latency
//!   couplings (the input of the `zero-latency-cycle` rule) — among them
//!   the MMIO frontend's writes into each REALM unit's shared registers.
//!
//! From the graph, [`analyze_deps`] computes a [`Partition`] holding a
//! deterministic **static evaluation schedule**: a topological order over
//! the *zero-latency* edges (comb couplings; wire hops are registered and
//! thus never constrain intra-cycle order), with
//! smallest-registration-index tie-breaking. One diagnostic rides along:
//! scheduled components that no dependence edge reaches at all
//! (`dependence-unreachable`).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use axi_sim::{PortDir, Topology};

use crate::diag::{escape, Diagnostic, Report, Severity};
use crate::system::SystemModel;

/// What kind of dependence an edge represents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DepEdgeKind {
    /// A shared pool wire (registered: adds a cycle of latency, so it
    /// never constrains intra-cycle evaluation order).
    Wire,
    /// A declared combinational coupling from the [`SystemModel`]
    /// (zero-latency).
    Comb,
}

impl DepEdgeKind {
    /// Lower-case label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            DepEdgeKind::Wire => "wire",
            DepEdgeKind::Comb => "comb",
        }
    }
}

/// One directed edge of the intra-cycle dependence graph.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DepEdge {
    /// Registration index of the component evaluated first.
    pub from: usize,
    /// Registration index of the component that observes `from`.
    pub to: usize,
    /// What carries the dependence.
    pub kind: DepEdgeKind,
    /// The carrier: `AW[3]` for a wire edge, `comb` otherwise.
    pub via: String,
}

/// The static dependence artifact for one system: every edge and the
/// deterministic evaluation schedule.
#[derive(Clone, Debug, Default)]
pub struct Partition {
    /// Component instance names, in registration order.
    pub names: Vec<String>,
    /// Every dependence edge (wire, comb), deterministic order.
    pub edges: Vec<DepEdge>,
    /// Topological order over the zero-latency edges with smallest-index
    /// tie-breaking — the static evaluation schedule. Components on a
    /// zero-latency cycle (a `zero-latency-cycle` error) fall back to
    /// registration order at the end.
    pub schedule: Vec<usize>,
    /// Longest zero-latency chain, in components (1 = no zero-latency
    /// edges at all; 0 = empty system).
    pub depth: usize,
    /// Number of opaque (port-less) components.
    pub opaque: usize,
}

impl Partition {
    /// Number of edges of the given kind.
    pub fn edge_count(&self, kind: DepEdgeKind) -> usize {
        self.edges.iter().filter(|e| e.kind == kind).count()
    }

    /// Renders the partition as a single JSON object:
    ///
    /// ```json
    /// {"components":N,"opaque":N,"schedule_depth":N,
    ///  "edges":{"wire":N,"comb":N},"schedule":["name",...]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"components\":{},\"opaque\":{},\"schedule_depth\":{},\
             \"edges\":{{\"wire\":{},\"comb\":{}}},\"schedule\":[",
            self.names.len(),
            self.opaque,
            self.depth,
            self.edge_count(DepEdgeKind::Wire),
            self.edge_count(DepEdgeKind::Comb),
        ));
        for (j, &i) in self.schedule.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", escape(&self.names[i])));
        }
        out.push_str("]}");
        out
    }
}

/// Runs Pass C: builds the dependence graph, computes the static
/// evaluation schedule, and reports `dependence-unreachable`. Also run as
/// part of [`analyze`] (see [`crate::analyze`]); call directly to get the
/// [`Partition`] artifact.
pub fn analyze_deps(topo: &Topology, model: &SystemModel) -> (Partition, Report) {
    let partition = build_partition(topo, model);
    let mut report = Report::new();
    check_dependence_unreachable(topo, &partition, &mut report);
    (partition, report)
}

/// Resolves a system-model node name to a component registration index
/// (first match; comb couplings name component instances).
fn resolve(topo: &Topology, name: &str) -> Option<usize> {
    topo.components.iter().position(|c| c.name == name)
}

/// Per-wire endpoint split: `(drivers, sinks)` by component index.
type WireEndpoints<'a> = BTreeMap<(&'a str, usize), (Vec<usize>, Vec<usize>)>;

fn build_partition(topo: &Topology, model: &SystemModel) -> Partition {
    let n = topo.components.len();
    let names: Vec<String> = topo.components.iter().map(|c| c.name.clone()).collect();

    // Wire edges: driver → consumer per shared wire. BTreeMap keying makes
    // the emission order deterministic (channel, then index).
    let mut edges: Vec<DepEdge> = Vec::new();
    let mut by_wire: WireEndpoints<'_> = BTreeMap::new();
    for c in &topo.components {
        for p in &c.ports {
            let (drivers, sinks) = by_wire.entry((p.channel, p.wire)).or_default();
            let side = match p.dir {
                PortDir::Drive => drivers,
                PortDir::Consume => sinks,
                PortDir::Observe => continue,
            };
            if !side.contains(&c.index) {
                side.push(c.index);
            }
        }
    }
    for (&(channel, index), (drivers, sinks)) in &by_wire {
        for &d in drivers.iter() {
            for &s in sinks.iter() {
                if d != s {
                    edges.push(DepEdge {
                        from: d,
                        to: s,
                        kind: DepEdgeKind::Wire,
                        via: format!("{channel}[{index}]"),
                    });
                }
            }
        }
    }

    // Comb edges from the system model, resolved by instance name;
    // unresolvable names are skipped (the model may describe nodes the
    // topology does not register as components).
    for (a, b) in &model.comb_edges {
        if let (Some(i), Some(j)) = (resolve(topo, a), resolve(topo, b)) {
            if i != j {
                edges.push(DepEdge {
                    from: i,
                    to: j,
                    kind: DepEdgeKind::Comb,
                    via: "comb".to_owned(),
                });
            }
        }
    }

    // Evaluation schedule: Kahn's algorithm over the zero-latency edges
    // only (comb couplings). Wire hops are registered — a beat
    // pushed at cycle t is visible at t+1 — so they never constrain the
    // order within a cycle; the request/response wire loops (manager →
    // memory → manager) would otherwise make every system cyclic.
    let mut zadj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for e in &edges {
        if e.kind == DepEdgeKind::Comb {
            zadj[e.from].push(e.to);
            indeg[e.to] += 1;
        }
    }
    let mut schedule = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut heap: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&i| indeg[i] == 0).map(Reverse).collect();
    while let Some(Reverse(i)) = heap.pop() {
        schedule.push(i);
        placed[i] = true;
        for &j in &zadj[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                heap.push(Reverse(j));
            }
        }
    }
    // Components on a zero-latency cycle (an error Pass A already
    // reports) keep registration order at the end.
    schedule.extend((0..n).filter(|&i| !placed[i]));

    // Schedule depth: longest zero-latency chain, in components. The
    // schedule emits sources before sinks for the acyclic part, so one
    // forward sweep suffices.
    let mut node_depth = vec![1usize; n];
    for &i in &schedule {
        for &j in &zadj[i] {
            node_depth[j] = node_depth[j].max(node_depth[i] + 1);
        }
    }
    let depth = node_depth.into_iter().max().unwrap_or(0);

    Partition {
        names,
        edges,
        schedule,
        depth,
        opaque: topo.opaque_components(),
    }
}

/// `dependence-unreachable`: a non-opaque component, other than an
/// observer (which is never scheduled), that no dependence edge of any
/// kind touches. It can never exchange data with the rest of
/// the system and the evaluation schedule has nothing to order it
/// against — almost always a component wired to the wrong bundle.
/// Suppressed when fewer than two non-opaque components exist (a
/// single-component system is trivially edge-free).
fn check_dependence_unreachable(topo: &Topology, partition: &Partition, report: &mut Report) {
    let non_opaque = topo.components.iter().filter(|c| !c.is_opaque()).count();
    if non_opaque < 2 {
        return;
    }
    let n = topo.components.len();
    let mut connected = vec![false; n];
    for e in &partition.edges {
        connected[e.from] = true;
        connected[e.to] = true;
    }
    for c in &topo.components {
        if !c.is_opaque() && !c.is_observer() && !connected[c.index] {
            report.push(Diagnostic::new(
                "dependence-unreachable",
                Severity::Warning,
                c.name.clone(),
                "no dependence edge (shared wire or comb coupling) connects \
                 this component to any other: it is unreachable in dependence order"
                    .to_owned(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi_sim::{AxiBundle, Component, PortDecl, Sim, TickCtx};

    struct Mgr {
        bundle: AxiBundle,
        name: &'static str,
    }
    impl Component for Mgr {
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
        fn name(&self) -> &str {
            self.name
        }
        fn ports(&self) -> Vec<PortDecl> {
            self.bundle.manager_ports()
        }
    }

    struct Sub {
        bundle: AxiBundle,
        name: &'static str,
    }
    impl Component for Sub {
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
        fn name(&self) -> &str {
            self.name
        }
        fn ports(&self) -> Vec<PortDecl> {
            self.bundle.subordinate_ports()
        }
    }

    fn pair(names: (&'static str, &'static str)) -> Sim {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        sim.add(Mgr {
            bundle,
            name: names.0,
        });
        sim.add(Sub {
            bundle,
            name: names.1,
        });
        sim
    }

    #[test]
    fn wire_edges_leave_registration_order() {
        let sim = pair(("mgr", "sub"));
        let (p, report) = analyze_deps(&sim.topology(), &SystemModel::new());
        assert!(report.diagnostics().is_empty());
        // 5 channels: AW/W/AR mgr→sub, B/R sub→mgr.
        assert_eq!(p.edge_count(DepEdgeKind::Wire), 5);
        assert_eq!(p.edge_count(DepEdgeKind::Comb), 0);
        // No zero-latency edges: schedule falls back to registration order
        // and the depth is one.
        assert_eq!(p.schedule, vec![0, 1]);
        assert_eq!(p.depth, 1);
    }

    #[test]
    fn comb_edges_order_the_schedule() {
        let sim = pair(("a", "b"));
        let model = SystemModel::new().comb_edge("b", "a");
        let (p, _) = analyze_deps(&sim.topology(), &model);
        assert_eq!(p.edge_count(DepEdgeKind::Comb), 1);
        assert_eq!(p.schedule, vec![1, 0], "comb source evaluates first");
        assert_eq!(p.depth, 2);
        // Unresolvable comb names are skipped silently.
        let model = SystemModel::new().comb_edge("nope", "a");
        let (p, _) = analyze_deps(&sim.topology(), &model);
        assert_eq!(p.edge_count(DepEdgeKind::Comb), 0);
    }

    #[test]
    fn unreachable_component_flagged() {
        let mut sim = Sim::new();
        let shared = AxiBundle::with_defaults(sim.pool_mut());
        let lonely = AxiBundle::with_defaults(sim.pool_mut());
        sim.add(Mgr {
            bundle: shared,
            name: "mgr",
        });
        sim.add(Sub {
            bundle: shared,
            name: "sub",
        });
        sim.add(Mgr {
            bundle: lonely,
            name: "stray",
        });
        let (p, report) = analyze_deps(&sim.topology(), &SystemModel::new());
        assert!(p.edges.iter().all(|e| e.from != 2 && e.to != 2));
        assert_eq!(p.schedule, vec![0, 1, 2], "still scheduled");
        let diags = report.by_rule("dependence-unreachable");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[0].path, "stray");
    }

    struct Watcher {
        bundle: AxiBundle,
    }
    impl Component for Watcher {
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
        fn name(&self) -> &str {
            "watcher"
        }
        fn ports(&self) -> Vec<PortDecl> {
            self.bundle.observer_ports()
        }
    }

    /// An observer is folded between cycles, never scheduled within one:
    /// it sinks no wire edge, and having none is not a finding.
    #[test]
    fn observers_sink_no_edge() {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        sim.add(Watcher { bundle });
        sim.add(Mgr {
            bundle,
            name: "mgr",
        });
        sim.add(Sub {
            bundle,
            name: "sub",
        });
        let (p, report) = analyze_deps(&sim.topology(), &SystemModel::new());
        assert_eq!(p.edge_count(DepEdgeKind::Wire), 5, "mgr<->sub only");
        assert!(p.edges.iter().all(|e| e.from != 0 && e.to != 0));
        assert!(report.diagnostics().is_empty(), "{report:?}");
    }

    #[test]
    fn unreachable_suppressed_for_single_component_systems() {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        sim.add(Mgr {
            bundle,
            name: "solo",
        });
        let (_, report) = analyze_deps(&sim.topology(), &SystemModel::new());
        assert!(report.by_rule("dependence-unreachable").is_empty());
    }

    #[test]
    fn empty_topology_is_empty_artifact() {
        let topo = Topology::default();
        let (p, report) = analyze_deps(&topo, &SystemModel::new());
        assert!(report.diagnostics().is_empty());
        assert!(p.edges.is_empty());
        assert_eq!(p.depth, 0);
        assert!(p.schedule.is_empty());
    }

    #[test]
    fn partition_json_shape() {
        let sim = pair(("mgr", "sub"));
        let (p, _) = analyze_deps(&sim.topology(), &SystemModel::new());
        let j = p.to_json();
        assert!(j.starts_with("{\"components\":2,"));
        assert!(j.contains("\"edges\":{\"wire\":5,\"comb\":0}"));
        assert!(j.contains("\"schedule\":[\"mgr\",\"sub\"]"));
        assert!(j.ends_with("]}"));
    }
}
