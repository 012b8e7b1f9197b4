//! Static topology introspection: which component touches which wire.
//!
//! Components declare their wire endpoints through [`Component::ports`]
//! (see [`crate::Component`]); [`Sim::topology`](crate::Sim::topology)
//! assembles the declarations into a [`Topology`] snapshot that static
//! analyzers (the `realm-lint` crate) check before cycle 0: dangling or
//! doubly-driven wires, unreachable components, and declared zero-latency
//! couplings that could form combinational cycles.

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
}

impl Topology {
    /// Assembles a topology from registered components and the wire pool.
    pub(crate) fn collect(components: &[Box<dyn Component>], pool: &ChannelPool) -> Self {
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
        }
    }

    /// Number of components that declared no ports (opaque to graph
    /// analysis).
    pub fn opaque_components(&self) -> usize {
        self.components.iter().filter(|c| c.is_opaque()).count()
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
}
