//! Static topology introspection: which component touches which wire.
//!
//! Components declare their wire endpoints through [`Component::ports`]
//! (see [`crate::Component`]); [`Sim::topology`](crate::Sim::topology)
//! assembles the declarations into a [`Topology`] snapshot that static
//! analyzers (the `realm-lint` crate) check before cycle 0: dangling or
//! doubly-driven wires, unreachable components, and declared zero-latency
//! couplings that could form combinational cycles.

use std::collections::BTreeMap;

use crate::component::Component;
use crate::pool::ChannelPool;

/// How a component relates to one wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortDir {
    /// The component pushes beats onto the wire.
    Drive,
    /// The component pops beats off the wire.
    Consume,
    /// The component only taps the wire (passive monitor); it neither
    /// sources nor sinks beats. A component whose every port is `Observe`
    /// is an *observer*: the kernel never ticks it per cycle, only folds it
    /// over its tap records (see [`Component`]).
    Observe,
}

/// One declared wire endpoint of a component.
///
/// Wires are identified by `(channel, wire)` — the channel label of the
/// beat type ("AW", "W", "B", "AR", "R") plus the pool-internal index
/// within that channel, exactly as [`WireId::index`](crate::WireId::index)
/// reports it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PortDecl {
    /// Channel label of the wire's beat type.
    pub channel: &'static str,
    /// Pool-internal wire index within the channel.
    pub wire: usize,
    /// The component's relation to the wire.
    pub dir: PortDir,
}

impl PortDecl {
    /// Creates a declaration.
    pub fn new(channel: &'static str, wire: usize, dir: PortDir) -> Self {
        Self { channel, wire, dir }
    }
}

/// One component's row in a [`Topology`]: registration index, instance
/// name, and declared wire endpoints.
#[derive(Clone, Debug)]
pub struct TopoComponent {
    /// Registration index within the [`Sim`](crate::Sim).
    pub index: usize,
    /// The component's [`Component::name`].
    pub name: String,
    /// Declared wire endpoints (empty for components that do not implement
    /// [`Component::ports`] — such components are opaque to graph checks).
    pub ports: Vec<PortDecl>,
}

impl TopoComponent {
    /// Returns `true` if the component declared no endpoints at all.
    pub fn is_opaque(&self) -> bool {
        self.ports.is_empty()
    }

    /// Returns `true` if the component only observes (no drive/consume).
    pub fn is_observer(&self) -> bool {
        observes_only(&self.ports)
    }
}

/// The observer rule: ports declared, and every one [`PortDir::Observe`].
pub(crate) fn observes_only(ports: &[PortDecl]) -> bool {
    !ports.is_empty() && ports.iter().all(|p| p.dir == PortDir::Observe)
}

/// One wire's row in a [`Topology`]: identity plus queue capacity.
///
/// Every pool wire is *registered* — a beat pushed at cycle *t* is visible
/// at *t + 1* — so wire hops always add latency; only explicitly declared
/// combinational couplings (see `realm-lint`'s system model) can create
/// zero-latency paths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TopoWire {
    /// Channel label of the wire's beat type.
    pub channel: &'static str,
    /// Pool-internal wire index within the channel.
    pub index: usize,
    /// Bounded queue depth.
    pub capacity: usize,
}

/// A static snapshot of a simulated system's structure: every registered
/// component with its declared ports, and every allocated wire.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// Components in registration (tick) order.
    pub components: Vec<TopoComponent>,
    /// All allocated wires across the five channels.
    pub wires: Vec<TopoWire>,
    /// `(source, dependent)` out-of-band couplings declared via
    /// [`Sim::couple`](crate::Sim::couple), in declaration order.
    pub couples: Vec<(usize, usize)>,
}

/// Disjoint-set forest over component indices (island computation).
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, i: usize) -> usize {
        let mut root = i;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut i = i;
        while self.parent[i] != root {
            let next = self.parent[i];
            self.parent[i] = root;
            i = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Attach the larger root under the smaller one so every island
            // is rooted at its lowest-indexed member (determinism aid).
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

impl Topology {
    /// Assembles a topology from registered components, the wire pool, and
    /// the declared couples.
    pub(crate) fn collect(
        components: &[Box<dyn Component>],
        pool: &ChannelPool,
        couples: &[(usize, usize)],
    ) -> Self {
        Self {
            components: components
                .iter()
                .enumerate()
                .map(|(index, c)| TopoComponent {
                    index,
                    name: c.name().to_owned(),
                    ports: c.ports(),
                })
                .collect(),
            wires: pool.wire_table(),
            couples: couples.to_vec(),
        }
    }

    /// Number of components that declared no ports (opaque to graph
    /// analysis).
    pub fn opaque_components(&self) -> usize {
        self.components.iter().filter(|c| c.is_opaque()).count()
    }

    /// Partitions the components into **islands**: connected components of
    /// the undirected dependence graph whose edges are shared wires (any
    /// two endpoints of one wire, whatever their direction) and declared
    /// couples. Components in different islands can never observe each
    /// other within a cycle, so each island can be stepped independently.
    ///
    /// Opaque (port-less) components may touch any wire, so each one is
    /// conservatively merged with every other component — a single opaque
    /// component collapses the partition to one island.
    ///
    /// Islands are ordered by their smallest member; members are in
    /// registration order. Deterministic for a given topology.
    pub fn islands(&self) -> Vec<Vec<usize>> {
        self.islands_with(&[])
    }

    /// Like [`Topology::islands`], but with additional undirected
    /// `(a, b)` edges merged in (out-of-range indices are ignored) —
    /// static analyzers use this to fold in zero-latency couplings that
    /// live outside the topology proper.
    pub fn islands_with(&self, extra_edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let n = self.components.len();
        let mut uf = UnionFind::new(n);
        // Every pair of declared endpoints of one wire is dependent: they
        // share the wire's queue (capacity freed by a pop is visible to the
        // driver; taps observe pushes same-cycle).
        let mut by_wire: BTreeMap<(&str, usize), usize> = BTreeMap::new();
        for c in &self.components {
            for p in &c.ports {
                match by_wire.get(&(p.channel, p.wire)) {
                    Some(&first) => uf.union(first, c.index),
                    None => {
                        by_wire.insert((p.channel, p.wire), c.index);
                    }
                }
            }
        }
        for &(source, dependent) in &self.couples {
            if source < n && dependent < n {
                uf.union(source, dependent);
            }
        }
        for &(a, b) in extra_edges {
            if a < n && b < n {
                uf.union(a, b);
            }
        }
        for c in &self.components {
            if c.is_opaque() {
                for other in 0..n {
                    uf.union(c.index, other);
                }
            }
        }
        let mut islands: Vec<Vec<usize>> = Vec::new();
        let mut island_of_root: BTreeMap<usize, usize> = BTreeMap::new();
        for i in 0..n {
            let root = uf.find(i);
            match island_of_root.get(&root) {
                Some(&k) => islands[k].push(i),
                None => {
                    island_of_root.insert(root, islands.len());
                    islands.push(vec![i]);
                }
            }
        }
        islands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::AxiBundle;
    use crate::component::TickCtx;
    use crate::sim::Sim;

    struct Declared {
        bundle: AxiBundle,
    }

    impl Component for Declared {
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
        fn name(&self) -> &str {
            "declared"
        }
        fn ports(&self) -> Vec<PortDecl> {
            self.bundle.manager_ports()
        }
    }

    struct Opaque;
    impl Component for Opaque {
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
    }

    #[test]
    fn topology_collects_ports_and_wires() {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        sim.add(Declared { bundle });
        sim.add(Opaque);
        let topo = sim.topology();
        assert_eq!(topo.components.len(), 2);
        assert_eq!(topo.wires.len(), 5);
        assert_eq!(topo.components[0].ports.len(), 5);
        assert!(!topo.components[0].is_opaque());
        assert!(topo.components[1].is_opaque());
        assert_eq!(topo.opaque_components(), 1);
        // Manager side drives the request channels, consumes the responses.
        let aw = topo.components[0]
            .ports
            .iter()
            .find(|p| p.channel == "AW")
            .unwrap();
        assert_eq!(aw.dir, PortDir::Drive);
        let r = topo.components[0]
            .ports
            .iter()
            .find(|p| p.channel == "R")
            .unwrap();
        assert_eq!(r.dir, PortDir::Consume);
        // Wire capacities come from the pool.
        assert!(topo.wires.iter().all(|w| w.capacity == 2));
    }

    #[test]
    fn observer_detection() {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        struct Watcher {
            bundle: AxiBundle,
        }
        impl Component for Watcher {
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
            fn ports(&self) -> Vec<PortDecl> {
                self.bundle.observer_ports()
            }
        }
        sim.add(Watcher { bundle });
        let topo = sim.topology();
        assert!(topo.components[0].is_observer());
        assert!(!topo.components[0].is_opaque());
    }

    #[test]
    fn islands_split_on_disjoint_wires_and_merge_on_couples() {
        let mut sim = Sim::new();
        let b1 = AxiBundle::with_defaults(sim.pool_mut());
        let b2 = AxiBundle::with_defaults(sim.pool_mut());
        let a = sim.add(Declared { bundle: b1 });
        let b = sim.add(Declared { bundle: b2 });
        let topo = sim.topology();
        assert!(topo.couples.is_empty());
        assert_eq!(topo.islands(), vec![vec![0], vec![1]]);
        // A couple is a dependence edge: it merges the two islands.
        sim.couple(a, b);
        let topo = sim.topology();
        assert_eq!(topo.couples, vec![(0, 1)]);
        assert_eq!(topo.islands(), vec![vec![0, 1]]);
    }

    #[test]
    fn shared_wires_merge_islands() {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        sim.add(Declared { bundle });
        sim.add(Declared { bundle });
        assert_eq!(sim.topology().islands(), vec![vec![0, 1]]);
    }

    #[test]
    fn opaque_component_collapses_partition() {
        let mut sim = Sim::new();
        let b1 = AxiBundle::with_defaults(sim.pool_mut());
        let b2 = AxiBundle::with_defaults(sim.pool_mut());
        sim.add(Declared { bundle: b1 });
        sim.add(Declared { bundle: b2 });
        sim.add(Opaque);
        // The port-less component may touch anything: one island only.
        assert_eq!(sim.topology().islands(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn islands_with_extra_edges_merges_and_ignores_bad_indices() {
        let mut sim = Sim::new();
        let b1 = AxiBundle::with_defaults(sim.pool_mut());
        let b2 = AxiBundle::with_defaults(sim.pool_mut());
        sim.add(Declared { bundle: b1 });
        sim.add(Declared { bundle: b2 });
        let topo = sim.topology();
        assert_eq!(topo.islands_with(&[(7, 9)]), vec![vec![0], vec![1]]);
        assert_eq!(topo.islands_with(&[(1, 0)]), vec![vec![0, 1]]);
    }
}
