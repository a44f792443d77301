//! Per-layer timing of simulated fabrics and packet sources, taken from
//! outside the program: [`TracedNet`] and [`TracedSource`] implement the
//! public `Network` and `PacketSource` traits around the real types.

use crate::{ms, Outcome};
use rlnoc_sim::{Delivery, Network, Packet, PacketSource, SimConfig};
use rlnoc_topology::Grid;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Totals for every network of one fabric kind built during a run.
///
/// Counters are statistics only, summed with `Relaxed` adds; they are
/// read after the sweep's worker threads have been joined.
#[derive(Debug)]
pub struct FabricProbe {
    /// Metric prefix, e.g. `sim.mesh2`.
    prefix: &'static str,
    build_ns: AtomicU64,
    offer_ns: AtomicU64,
    tick_ns: AtomicU64,
    drain_ns: AtomicU64,
    node_cycles: AtomicU64,
    delivered: AtomicU64,
    builds: AtomicU64,
}

impl FabricProbe {
    /// An empty probe reporting under `prefix`.
    pub fn new(prefix: &'static str) -> Self {
        let zero = || AtomicU64::new(0);
        FabricProbe {
            prefix,
            build_ns: zero(),
            offer_ns: zero(),
            tick_ns: zero(),
            drain_ns: zero(),
            node_cycles: zero(),
            delivered: zero(),
            builds: zero(),
        }
    }

    /// Builds a network with `make`, timing the construction, and wraps it.
    pub fn build<N: Network>(&self, make: impl FnOnce() -> N) -> TracedNet<'_, N> {
        let t = Instant::now();
        let inner = make();
        self.build_ns.fetch_add(nanos(t), Ordering::Relaxed);
        self.builds.fetch_add(1, Ordering::Relaxed);
        TracedNet {
            nodes: inner.grid().len() as u64,
            inner,
            probe: self,
            offer_ns: 0,
            tick_ns: 0,
            drain_ns: 0,
            node_cycles: 0,
            delivered: 0,
        }
    }

    /// Networks built so far.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Nanoseconds spent building and running this fabric's networks.
    pub fn busy_ns(&self) -> u64 {
        [
            &self.build_ns,
            &self.offer_ns,
            &self.tick_ns,
            &self.drain_ns,
        ]
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .sum()
    }

    /// Appends this fabric's per-layer metrics.
    pub fn report(&self, out: &mut Outcome) {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let p = self.prefix;
        let node_cycles = get(&self.node_cycles);
        let run_ns = get(&self.offer_ns) + get(&self.tick_ns) + get(&self.drain_ns);
        out.push(
            format!("{p}.ns_per_node_cycle"),
            run_ns as f64 / node_cycles.max(1) as f64,
            "ns",
        );
        out.push(format!("{p}.tick_ms"), ms(get(&self.tick_ns)), "ms");
        out.push(format!("{p}.offer_ms"), ms(get(&self.offer_ns)), "ms");
        out.push(format!("{p}.drain_ms"), ms(get(&self.drain_ns)), "ms");
        out.push(format!("{p}.build_ms"), ms(get(&self.build_ns)), "ms");
        out.push(format!("{p}.node_cycles"), node_cycles as f64, "count");
        out.push(
            format!("{p}.packets_delivered"),
            get(&self.delivered) as f64,
            "count",
        );
    }
}

fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// A network that times its `offer`, `tick` and `drain_deliveries` calls
/// and adds the totals to its [`FabricProbe`] when dropped.
#[derive(Debug)]
pub struct TracedNet<'a, N> {
    inner: N,
    probe: &'a FabricProbe,
    nodes: u64,
    offer_ns: u64,
    tick_ns: u64,
    drain_ns: u64,
    node_cycles: u64,
    delivered: u64,
}

impl<N: Network> Network for TracedNet<'_, N> {
    fn grid(&self) -> &Grid {
        self.inner.grid()
    }

    fn offer(&mut self, packet: Packet) {
        let t = Instant::now();
        self.inner.offer(packet);
        self.offer_ns += nanos(t);
    }

    fn tick(&mut self, cycle: u64) {
        let t = Instant::now();
        self.inner.tick(cycle);
        self.tick_ns += nanos(t);
        self.node_cycles += self.nodes;
    }

    fn drain_deliveries(&mut self, out: &mut Vec<Delivery>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.drain_deliveries(out);
        self.drain_ns += nanos(t);
        self.delivered += (out.len() - before) as u64;
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn telemetry_sample(&self, rec: &mut rlnoc_telemetry::Recorder) {
        self.inner.telemetry_sample(rec)
    }
}

impl<N> Drop for TracedNet<'_, N> {
    fn drop(&mut self) {
        let p = self.probe;
        p.offer_ns.fetch_add(self.offer_ns, Ordering::Relaxed);
        p.tick_ns.fetch_add(self.tick_ns, Ordering::Relaxed);
        p.drain_ns.fetch_add(self.drain_ns, Ordering::Relaxed);
        p.node_cycles.fetch_add(self.node_cycles, Ordering::Relaxed);
        p.delivered.fetch_add(self.delivered, Ordering::Relaxed);
    }
}

/// A packet source that times `generate_into` and counts the packets it
/// offers.
#[derive(Debug)]
pub struct TracedSource<S> {
    inner: S,
    /// Nanoseconds spent generating packets.
    pub generate_ns: u64,
    /// Packets generated.
    pub packets: u64,
}

impl<S> TracedSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TracedSource {
            inner,
            generate_ns: 0,
            packets: 0,
        }
    }
}

impl<S: PacketSource> PacketSource for TracedSource<S> {
    fn generate_into(
        &mut self,
        cycle: u64,
        cfg: &SimConfig,
        measured: bool,
        out: &mut Vec<Packet>,
    ) {
        let before = out.len();
        let t = Instant::now();
        self.inner.generate_into(cycle, cfg, measured, out);
        self.generate_ns += nanos(t);
        self.packets += (out.len() - before) as u64;
    }
}
