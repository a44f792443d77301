//! The router-based mesh fabric: wormhole routers with one input FIFO per
//! port (no virtual channels), XY dimension-order routing and credit-based
//! backpressure.

use crate::fault::{FaultEvent, FaultPlan};
use crate::hash::PacketIdBuildHasher;
use crate::packet::{Flit, Packet};
use crate::runner::{Delivery, Network};
use rlnoc_topology::{Grid, NodeId};
use std::collections::{HashSet, VecDeque};

/// Router ports, in fixed arbitration order.
const NORTH: usize = 0;
const EAST: usize = 1;
const SOUTH: usize = 2;
const WEST: usize = 3;
const LOCAL: usize = 4;
const PORTS: usize = 5;
/// One bit per port.
const ALL_PORTS: u8 = (1 << PORTS) - 1;

/// A buffered flit with the cycle it entered this router (for pipeline
/// modelling).
type Buffered = (Flit, u64);

#[derive(Debug, Clone)]
struct Router {
    /// Input FIFO per port.
    inputs: [VecDeque<Buffered>; PORTS],
    /// Wormhole reservation per output port:
    /// `(input port, flits left, packet id)`. The id lets fault handling
    /// release locks held by packets lost to a dead link.
    out_lock: [Option<(usize, usize, u64)>; PORTS],
    /// Round-robin pointer per output port.
    rr: [usize; PORTS],
}

/// Live fault-injection state for the mesh (present only on sims built
/// with [`MeshSim::with_faults`]). All hooks are behavioural no-ops until
/// the first event fires, preserving the zero-fault bit-identity contract.
#[derive(Debug, Clone)]
struct MeshFaultState {
    plan: FaultPlan,
    /// Index of the next unapplied event in `plan`.
    next_event: usize,
    /// `dead_out[node][port]`: the directed link leaving `node` through
    /// `port` is dead.
    dead_out: Vec<[bool; PORTS]>,
    /// Whether any link has died yet (fast path gate).
    any_dead: bool,
    /// Injection-stall windows `(node, from, until)`.
    stalls: Vec<(NodeId, u64, u64)>,
    /// Packets that lost flits (or their only route) to a fault; their
    /// surviving flits are purged instead of delivered.
    condemned: HashSet<u64, PacketIdBuildHasher>,
    /// `condemned.len()` when the buffers were last swept for condemned
    /// flits. A sweep leaves none behind (injection never admits a
    /// condemned packet and buffered flits only move between buffers), so
    /// the next sweep is due only once the set has grown.
    swept: usize,
    /// Packets condemned by faults (each counted once).
    dropped_packets: u64,
    /// Individual flits destroyed or discarded because of faults.
    dropped_flits: u64,
}

impl MeshFaultState {
    fn is_stalled(&self, node: NodeId, cycle: u64) -> bool {
        self.stalls
            .iter()
            .any(|&(n, from, until)| n == node && from <= cycle && cycle < until)
    }

    /// Condemns `id` exactly once, unwinding in-flight accounting.
    /// Returns whether it was newly condemned.
    fn condemn(&mut self, in_flight_packets: &mut usize, id: u64) -> bool {
        if self.condemned.insert(id) {
            *in_flight_packets -= 1;
            self.dropped_packets += 1;
            true
        } else {
            false
        }
    }
}

impl Router {
    fn new() -> Self {
        Router {
            inputs: Default::default(),
            out_lock: [None; PORTS],
            rr: [0; PORTS],
        }
    }

    /// Bitmask of the non-empty inputs.
    fn busy_mask(&self) -> u8 {
        (0..PORTS).fold(0, |m, p| m | (u8::from(!self.inputs[p].is_empty()) << p))
    }
}

/// XY dimension-order output port at `at` for destination `dst`.
fn xy_port(at: (u32, u32), dst: (u32, u32)) -> usize {
    if at.0 < dst.0 {
        EAST
    } else if at.0 > dst.0 {
        WEST
    } else if at.1 < dst.1 {
        SOUTH
    } else if at.1 > dst.1 {
        NORTH
    } else {
        LOCAL
    }
}

/// Fault-masked XY output port: the X-productive port if its link is
/// alive, else the Y-productive one, else `None` (no live productive
/// move). With no dead links this is exactly [`xy_port`].
fn masked_port(
    xy: &[(u32, u32)],
    dead_out: &[[bool; PORTS]],
    at: NodeId,
    dst: NodeId,
) -> Option<usize> {
    if at == dst {
        return Some(LOCAL);
    }
    let ((x, y), (dx, dy)) = (xy[at], xy[dst]);
    let xport = if x < dx {
        Some(EAST)
    } else if x > dx {
        Some(WEST)
    } else {
        None
    };
    let yport = if y < dy {
        Some(SOUTH)
    } else if y > dy {
        Some(NORTH)
    } else {
        None
    };
    [xport, yport]
        .into_iter()
        .flatten()
        .find(|&p| !dead_out[at][p])
}

/// The neighbouring router reached through `port` (row-major node ids).
/// Routing only ever picks productive ports, so the neighbour exists.
fn neighbour(at: NodeId, port: usize, width: usize) -> NodeId {
    match port {
        NORTH => at - width,
        EAST => at + 1,
        SOUTH => at + width,
        WEST => at - 1,
        _ => at,
    }
}

/// The port on the neighbour that a flit sent through `port` arrives on.
fn arrival_port(port: usize) -> usize {
    match port {
        NORTH => SOUTH,
        SOUTH => NORTH,
        EAST => WEST,
        WEST => EAST,
        other => other,
    }
}

/// Cycle-accurate mesh simulator.
///
/// Each hop costs one link cycle plus `router_delay` cycles in the input
/// buffer (the paper's Mesh-2 baseline uses 2, the optimized Mesh-1 uses
/// 1, and the idealized Mesh-0 uses 0). Wormhole switching holds an output
/// port from head to tail; credits bound each input FIFO at
/// `buffer_capacity` flits.
#[derive(Debug, Clone)]
pub struct MeshSim {
    grid: Grid,
    router_delay: u64,
    buffer_capacity: usize,
    routers: Vec<Router>,
    /// `busy[r]` bit `p`: input `p` of router `r` holds a flit. Kept on
    /// every push and pop; routers with a zero mask are skipped.
    busy: Vec<u8>,
    /// Per-tick scratch: `served[r]` bit `p`: input `p` of router `r`
    /// forwarded a flit this tick.
    served: Vec<u8>,
    /// `(x, y)` of every node, so routing needs no division.
    xy: Vec<(u32, u32)>,
    queues: Vec<VecDeque<Packet>>,
    /// Next flit index to inject for the head packet of each node queue.
    inject_progress: Vec<usize>,
    deliveries: Vec<Delivery>,
    in_flight_packets: usize,
    /// Fault-injection state; `None` for sims without a fault plan.
    faults: Option<Box<MeshFaultState>>,
}

impl MeshSim {
    /// Creates a mesh with the given router pipeline depth (cycles per hop
    /// beyond the link) and per-input buffer capacity in flits.
    pub fn new(grid: Grid, router_delay: u64, buffer_capacity: usize) -> Self {
        MeshSim {
            grid,
            router_delay,
            buffer_capacity: buffer_capacity.max(1),
            routers: (0..grid.len()).map(|_| Router::new()).collect(),
            busy: vec![0; grid.len()],
            served: vec![0; grid.len()],
            xy: grid.coords().map(|(x, y)| (x as u32, y as u32)).collect(),
            queues: vec![VecDeque::new(); grid.len()],
            inject_progress: vec![0; grid.len()],
            deliveries: Vec::new(),
            in_flight_packets: 0,
            faults: None,
        }
    }

    /// Builds a mesh that replays `plan` as it runs: dead links switch the
    /// fabric to fault-masked XY routing (prefer the X-productive port if
    /// its link is alive, else the Y-productive one), packets left with no
    /// live productive port are dropped and accounted in
    /// [`MeshSim::dropped_by_fault`], and stall windows pause a node's
    /// injection. An empty plan behaves bit-identically to
    /// [`MeshSim::new`].
    ///
    /// Fault-masked routing keeps every move productive (no livelock) but
    /// abandons strict dimension order, so adversarial faulted workloads
    /// can in principle form wormhole cycles; bounded-drain runs report
    /// such stuck packets via [`Network::in_flight`] rather than hanging.
    pub fn with_faults(
        grid: Grid,
        router_delay: u64,
        buffer_capacity: usize,
        plan: FaultPlan,
    ) -> Self {
        let mut sim = MeshSim::new(grid, router_delay, buffer_capacity);
        let stalls = plan
            .events()
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::StallInjection { node, from, until } => Some((node, from, until)),
                _ => None,
            })
            .collect();
        sim.faults = Some(Box::new(MeshFaultState {
            plan,
            next_event: 0,
            dead_out: vec![[false; PORTS]; grid.len()],
            any_dead: false,
            stalls,
            condemned: HashSet::default(),
            swept: 0,
            dropped_packets: 0,
            dropped_flits: 0,
        }));
        sim
    }

    /// Packets condemned by injected faults (each counted once).
    pub fn dropped_by_fault(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.dropped_packets)
    }

    /// Individual flits destroyed or discarded because of injected faults.
    pub fn dropped_fault_flits(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.dropped_flits)
    }

    /// The paper's baseline two-cycle router.
    pub fn mesh2(grid: Grid) -> Self {
        MeshSim::new(grid, 2, 8)
    }

    /// The optimized one-cycle router.
    pub fn mesh1(grid: Grid) -> Self {
        MeshSim::new(grid, 1, 8)
    }

    /// The idealized zero-cycle router (link/contention delays only).
    pub fn mesh0(grid: Grid) -> Self {
        MeshSim::new(grid, 0, 8)
    }

    /// Applies every scheduled fault whose activation cycle has arrived.
    /// No-op (one branch) without a plan or between events.
    fn apply_due_faults(&mut self, cycle: u64) {
        let Some(fs) = self.faults.as_deref_mut() else {
            return;
        };
        while fs.next_event < fs.plan.events().len()
            && fs.plan.events()[fs.next_event].activation_cycle() <= cycle
        {
            let event = fs.plan.events()[fs.next_event];
            fs.next_event += 1;
            let FaultEvent::KillMeshLink { from, to, .. } = event else {
                // Routerless-only and pre-extracted events: nothing to do.
                continue;
            };
            let (x, y) = self.grid.coord_of(from);
            let (tx, ty) = self.grid.coord_of(to);
            let port = match (tx as i64 - x as i64, ty as i64 - y as i64) {
                (1, 0) => EAST,
                (-1, 0) => WEST,
                (0, 1) => SOUTH,
                (0, -1) => NORTH,
                _ => continue, // not an adjacent pair: ignore
            };
            if fs.dead_out[from][port] {
                continue;
            }
            fs.dead_out[from][port] = true;
            fs.any_dead = true;
            // A wormhole mid-transfer across the dying link is severed:
            // the packet can never complete.
            if let Some((_, _, pid)) = self.routers[from].out_lock[port].take() {
                fs.condemn(&mut self.in_flight_packets, pid);
            }
        }
    }

    /// Removes fault casualties from the fabric: flits of condemned
    /// packets anywhere in the input buffers, head flits left with no live
    /// productive port (condemning their packets), and output locks held
    /// by condemned packets. Runs only while faults are active.
    fn purge_faulted(&mut self) {
        let MeshSim {
            routers,
            busy,
            xy,
            in_flight_packets,
            faults,
            ..
        } = self;
        let Some(fs) = faults.as_deref_mut() else {
            return;
        };
        let dropped_before = fs.dropped_flits;
        let grew = fs.condemned.len() != fs.swept;
        // Drop condemned flits wherever they sit.
        if grew {
            for router in routers.iter_mut() {
                for q in &mut router.inputs {
                    let before = q.len();
                    q.retain(|&(f, _)| !fs.condemned.contains(&f.packet.id));
                    fs.dropped_flits += (before - q.len()) as u64;
                }
            }
            fs.swept = fs.condemned.len();
        }
        // Heads stuck with no live productive port block their whole
        // input queue: condemn and drop them. Packets condemned here keep
        // flits upstream, which the next tick's sweep removes.
        if fs.any_dead {
            for (r, router) in routers.iter_mut().enumerate() {
                for q in &mut router.inputs {
                    while let Some(&(flit, _)) = q.front() {
                        if fs.condemned.contains(&flit.packet.id) {
                            q.pop_front();
                            fs.dropped_flits += 1;
                            continue;
                        }
                        if flit.is_head()
                            && masked_port(xy, &fs.dead_out, r, flit.packet.dst).is_none()
                        {
                            q.pop_front();
                            fs.dropped_flits += 1;
                            fs.condemn(in_flight_packets, flit.packet.id);
                            continue;
                        }
                        break;
                    }
                }
            }
        }
        // Condemned packets release their wormhole reservations. A
        // condemned packet has no head left to take a new lock, so only a
        // grown set can hold any.
        if grew || fs.condemned.len() != fs.swept {
            for router in routers.iter_mut() {
                for lock in &mut router.out_lock {
                    if lock.is_some_and(|(_, _, pid)| fs.condemned.contains(&pid)) {
                        *lock = None;
                    }
                }
            }
        }
        if fs.dropped_flits != dropped_before {
            for (mask, router) in busy.iter_mut().zip(routers.iter()) {
                *mask = router.busy_mask();
            }
        }
    }
}

impl Network for MeshSim {
    fn grid(&self) -> &Grid {
        &self.grid
    }

    fn offer(&mut self, packet: Packet) {
        self.queues[packet.src].push_back(packet);
        self.in_flight_packets += 1;
    }

    fn tick(&mut self, cycle: u64) {
        // Phase 0: activate scheduled faults and clear their casualties
        // (both no-ops without a plan).
        self.apply_due_faults(cycle);
        self.purge_faulted();

        let MeshSim {
            grid,
            router_delay,
            buffer_capacity,
            routers,
            busy,
            served,
            xy,
            queues,
            inject_progress,
            deliveries,
            in_flight_packets,
            faults,
        } = self;
        let (delay, capacity, width) = (*router_delay, *buffer_capacity, grid.width());
        let dead_out = faults
            .as_deref()
            .filter(|fs| fs.any_dead)
            .map(|fs| &fs.dead_out[..]);
        served.fill(0);

        for r in 0..routers.len() {
            if busy[r] == 0 {
                continue;
            }
            // Requests: bit `inp` of `req[out]` is set when input `inp`
            // holds a ready head flit routed to `out`. Inputs only lose
            // flits when served, and a served input is masked out below,
            // so the requests stay valid for the whole arbitration.
            let mut req = [0u8; PORTS];
            let mut pending = busy[r];
            while pending != 0 {
                let inp = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let (flit, entered) = routers[r].inputs[inp][0];
                if flit.is_head() && cycle >= entered + delay {
                    let dst = flit.packet.dst;
                    let out = match dead_out {
                        None => Some(xy_port(xy[r], xy[dst])),
                        Some(dead) => masked_port(xy, dead, r, dst),
                    };
                    if let Some(out) = out {
                        req[out] |= 1 << inp;
                    }
                }
            }
            let mut done = 0u8;
            for (out, &requests) in req.iter().enumerate() {
                // Which input may use this output? The wormhole owner, or
                // the first requester at or after the round-robin pointer.
                let inp = match routers[r].out_lock[out] {
                    Some((inp, _, _)) => inp,
                    None => {
                        let cand = requests & !done;
                        if cand == 0 {
                            continue;
                        }
                        let start = routers[r].rr[out];
                        let rotated = (cand >> start | cand << (PORTS - start)) & ALL_PORTS;
                        (start + rotated.trailing_zeros() as usize) % PORTS
                    }
                };
                if done & (1 << inp) != 0 {
                    continue;
                }
                // Pipeline delay also applies to locked (body) flits.
                let Some(&(flit, entered)) = routers[r].inputs[inp].front() else {
                    continue;
                };
                if cycle < entered + delay {
                    continue;
                }
                // Credit check for non-local outputs, against the
                // neighbour's start-of-tick occupancy: its live length
                // plus the flit it popped this tick, if any. Only this
                // link feeds that input, once per tick at most, so no
                // other arrival can be counted in the live length.
                let (nb, ap) = (neighbour(r, out, width), arrival_port(out));
                if out != LOCAL
                    && routers[nb].inputs[ap].len() + usize::from(served[nb] >> ap & 1) >= capacity
                {
                    continue;
                }
                // Forward the flit.
                routers[r].inputs[inp].pop_front();
                done |= 1 << inp;
                if routers[r].inputs[inp].is_empty() {
                    busy[r] &= !(1 << inp);
                }
                if out == LOCAL {
                    // Wormhole locks and FIFO inputs keep a packet's flits
                    // in order on one path, so its tail arrives last.
                    if flit.is_tail() {
                        let p = flit.packet;
                        debug_assert!(faults
                            .as_deref()
                            .is_none_or(|fs| !fs.condemned.contains(&p.id)));
                        let ((sx, sy), (dx, dy)) = (xy[p.src], xy[p.dst]);
                        deliveries.push(Delivery {
                            packet: p,
                            delivered: cycle,
                            hops: u64::from(sx.abs_diff(dx) + sy.abs_diff(dy)),
                        });
                        *in_flight_packets -= 1;
                    }
                } else {
                    // Stamped `cycle + 1`, the flit cannot move again
                    // before the next tick.
                    routers[nb].inputs[ap].push_back((flit, cycle + 1));
                    busy[nb] |= 1 << ap;
                }
                // Maintain the wormhole lock.
                let router = &mut routers[r];
                match &mut router.out_lock[out] {
                    Some((_, left, _)) => {
                        *left -= 1;
                        if *left == 0 {
                            router.out_lock[out] = None;
                        }
                    }
                    None => {
                        router.rr[out] = (inp + 1) % PORTS;
                        if flit.packet.flits > 1 {
                            router.out_lock[out] =
                                Some((inp, flit.packet.flits - 1, flit.packet.id));
                        }
                    }
                }
            }
            served[r] = done;
        }

        // Injection: one flit per node per cycle into the local input, if
        // there is buffer space.
        for node in 0..grid.len() {
            if let Some(fs) = faults.as_deref_mut() {
                if !fs.stalls.is_empty() && fs.is_stalled(node, cycle) {
                    continue;
                }
                // Queued packets whose route died (or that were condemned
                // mid-injection) never enter the fabric.
                while let Some(&p) = queues[node].front() {
                    if fs.condemned.contains(&p.id) {
                        queues[node].pop_front();
                        inject_progress[node] = 0;
                    } else if inject_progress[node] == 0
                        && fs.any_dead
                        && masked_port(xy, &fs.dead_out, p.src, p.dst).is_none()
                    {
                        queues[node].pop_front();
                        fs.condemn(in_flight_packets, p.id);
                    } else {
                        break;
                    }
                }
            }
            let Some(&packet) = queues[node].front() else {
                continue;
            };
            let local = &mut routers[node].inputs[LOCAL];
            if local.len() >= capacity {
                continue;
            }
            let idx = inject_progress[node];
            local.push_back((Flit { packet, index: idx }, cycle + 1));
            busy[node] |= 1 << LOCAL;
            if idx + 1 == packet.flits {
                queues[node].pop_front();
                inject_progress[node] = 0;
            } else {
                inject_progress[node] = idx + 1;
            }
        }
    }

    fn drain_deliveries(&mut self, out: &mut Vec<Delivery>) {
        out.append(&mut self.deliveries);
    }

    fn in_flight(&self) -> usize {
        self.in_flight_packets
    }

    fn telemetry_sample(&self, rec: &mut rlnoc_telemetry::Recorder) {
        rec.incr("sim.dropped_by_fault_packets", self.dropped_by_fault());
        rec.incr("sim.dropped_by_fault_flits", self.dropped_fault_flits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::packet::PacketKind;
    use crate::runner::run_synthetic;
    use crate::traffic::Pattern;

    fn packet(id: u64, src: NodeId, dst: NodeId, flits: usize) -> Packet {
        Packet {
            id,
            src,
            dst,
            kind: PacketKind::Data,
            flits,
            created: 0,
            measured: true,
        }
    }

    fn run_until_delivered(sim: &mut MeshSim, max: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        for cycle in 0..max {
            sim.tick(cycle);
            out.extend(sim.take_deliveries());
            if sim.in_flight() == 0 {
                break;
            }
        }
        out
    }

    #[test]
    fn zero_load_latency_scales_with_router_delay() {
        // 4x4 mesh, corner to corner: 6 hops. Expected zero-load latency
        // fits (hops+1) router traversals plus links plus serialization.
        let g = Grid::square(4).unwrap();
        let mut lat = Vec::new();
        for delay in [0u64, 1, 2] {
            let mut sim = MeshSim::new(g, delay, 8);
            sim.offer(packet(0, 0, 15, 1));
            let d = run_until_delivered(&mut sim, 200);
            assert_eq!(d.len(), 1);
            assert_eq!(d[0].hops, 6);
            lat.push(d[0].delivered);
        }
        assert!(lat[0] < lat[1] && lat[1] < lat[2], "latencies {lat:?}");
        // Mesh-0 pays ~1 cycle/hop.
        assert!(lat[0] >= 6 && lat[0] <= 10, "mesh-0 latency {}", lat[0]);
        // Mesh-2 pays ~3 cycles/hop.
        assert!(lat[2] >= 18 && lat[2] <= 26, "mesh-2 latency {}", lat[2]);
    }

    #[test]
    fn xy_routing_no_deadlock_at_moderate_load() {
        let g = Grid::square(4).unwrap();
        let mut sim = MeshSim::mesh2(g);
        let cfg = SimConfig {
            warmup: 100,
            measure: 1_500,
            drain: 3_000,
            ..SimConfig::mesh()
        };
        let m = run_synthetic(&mut sim, Pattern::UniformRandom, 0.05, &cfg, 2);
        assert!(m.packets > 0);
        assert!(
            m.delivery_ratio() > 0.98,
            "moderate load must deliver: {}",
            m.delivery_ratio()
        );
        assert_eq!(sim.in_flight(), 0, "network must drain (deadlock-free)");
    }

    #[test]
    fn wormhole_keeps_packets_contiguous() {
        // Two multi-flit packets crossing the same router must not deliver
        // interleaved garbage: both arrive complete.
        let g = Grid::square(3).unwrap();
        let mut sim = MeshSim::mesh1(g);
        sim.offer(packet(1, g.node_at(0, 1), g.node_at(2, 1), 4));
        sim.offer(packet(2, g.node_at(1, 0), g.node_at(1, 2), 4));
        let d = run_until_delivered(&mut sim, 300);
        assert_eq!(d.len(), 2, "both packets complete");
    }

    #[test]
    fn hop_count_is_manhattan() {
        let g = Grid::square(5).unwrap();
        let mut sim = MeshSim::mesh1(g);
        sim.offer(packet(0, g.node_at(1, 1), g.node_at(4, 3), 2));
        let d = run_until_delivered(&mut sim, 200);
        assert_eq!(d[0].hops, 5);
    }

    #[test]
    fn backpressure_limits_throughput() {
        // At absurd offered load the mesh saturates: accepted throughput
        // flattens well below offered. 8x8 so the bisection actually binds.
        let g = Grid::square(8).unwrap();
        let cfg = SimConfig {
            warmup: 200,
            measure: 2_000,
            drain: 500,
            ..SimConfig::mesh()
        };
        let m = run_synthetic(&mut MeshSim::mesh2(g), Pattern::UniformRandom, 0.9, &cfg, 4);
        assert!(
            m.accepted_throughput() < 0.5,
            "accepted {} must sit below offered 0.9",
            m.accepted_throughput()
        );
    }

    #[test]
    fn dead_link_reroutes_via_y_first() {
        // 3x3 mesh, 0 → 2 (pure X route through node 1). Kill link 0→1
        // before injection: masked XY must go south first and still
        // deliver (productive moves only).
        let g = Grid::square(3).unwrap();
        let mut plan = FaultPlan::new();
        plan.kill_mesh_link(0, g.node_at(0, 0), g.node_at(1, 0));
        let mut sim = MeshSim::with_faults(g, 1, 8, plan);
        sim.offer(packet(1, g.node_at(0, 0), g.node_at(2, 0), 2));
        let d = run_until_delivered(&mut sim, 200);
        // Pure-X destination with the X link dead and no Y-productive
        // direction (dy == 0): the packet cannot leave and is dropped.
        assert!(d.is_empty());
        assert_eq!(sim.dropped_by_fault(), 1);
        assert_eq!(sim.in_flight(), 0);

        // A diagonal destination has a live Y fallback and must arrive.
        let mut plan = FaultPlan::new();
        plan.kill_mesh_link(0, g.node_at(0, 0), g.node_at(1, 0));
        let mut sim = MeshSim::with_faults(g, 1, 8, plan);
        sim.offer(packet(2, g.node_at(0, 0), g.node_at(2, 2), 2));
        let d = run_until_delivered(&mut sim, 200);
        assert_eq!(d.len(), 1, "Y-first detour must deliver");
        assert_eq!(sim.dropped_by_fault(), 0);
    }

    #[test]
    fn mid_wormhole_link_kill_severs_packet() {
        // A long packet streams 0→2 on a 3x1-ish path; kill the link it is
        // crossing mid-stream. The packet must be condemned exactly once
        // and the fabric must drain (no stuck lock).
        let g = Grid::square(3).unwrap();
        let from = g.node_at(1, 0);
        let to = g.node_at(2, 0);
        let mut plan = FaultPlan::new();
        plan.kill_mesh_link(6, from, to);
        let mut sim = MeshSim::with_faults(g, 1, 8, plan);
        sim.offer(packet(1, g.node_at(0, 0), g.node_at(2, 0), 8));
        for cycle in 0..100 {
            sim.tick(cycle);
            sim.take_deliveries();
        }
        assert_eq!(sim.dropped_by_fault(), 1);
        assert_eq!(sim.in_flight(), 0, "severed wormhole must not wedge");
        assert!(sim.dropped_fault_flits() > 0);
        // The fabric still works for an unaffected pair.
        sim.offer(Packet {
            created: 100,
            ..packet(2, g.node_at(0, 1), g.node_at(2, 2), 2)
        });
        let mut arrived = false;
        for cycle in 100..200 {
            sim.tick(cycle);
            if !sim.take_deliveries().is_empty() {
                arrived = true;
                break;
            }
        }
        assert!(arrived);
    }

    #[test]
    fn body_flits_of_a_stuck_head_are_swept() {
        // Two 8-flit packets 0 → 2 along row 0 each reach router 1 after
        // link 1→2 died, so their heads have no live productive port and
        // are condemned while body flits still wait upstream in node 0's
        // local input. Each time those flits must be swept out, or they
        // block node 0 for good and the last packet never arrives.
        let g = Grid::square(3).unwrap();
        let (src, mid, dst) = (g.node_at(0, 0), g.node_at(1, 0), g.node_at(2, 0));
        let mut plan = FaultPlan::new();
        plan.kill_mesh_link(3, mid, dst);
        let mut sim = MeshSim::with_faults(g, 1, 8, plan);
        let mut delivered = Vec::new();
        for (id, at, to, flits) in [(1, 0, dst, 8), (2, 30, dst, 8), (3, 60, g.node_at(0, 2), 2)] {
            sim.offer(Packet {
                created: at,
                ..packet(id, src, to, flits)
            });
            for cycle in at..at + 30 {
                sim.tick(cycle);
                delivered.extend(sim.take_deliveries().iter().map(|d| d.packet.id));
            }
        }
        assert_eq!(delivered, [3]);
        assert_eq!(sim.dropped_by_fault(), 2);
        assert_eq!(sim.in_flight(), 0);
    }

    #[test]
    fn mesh_stall_window_delays_injection() {
        let g = Grid::square(3).unwrap();
        let src = g.node_at(0, 0);
        let mut plan = FaultPlan::new();
        plan.stall_injection(src, 0, 10);
        let mut sim = MeshSim::with_faults(g, 1, 8, plan);
        sim.offer(packet(1, src, g.node_at(1, 0), 1));
        let d = run_until_delivered(&mut sim, 100);
        assert_eq!(d.len(), 1);
        assert!(
            d[0].delivered >= 10,
            "stalled source delivered at {}",
            d[0].delivered
        );
        // The same packet without a stall is much earlier.
        let mut free = MeshSim::new(g, 1, 8);
        free.offer(packet(1, src, g.node_at(1, 0), 1));
        let d_free = run_until_delivered(&mut free, 100);
        assert!(d_free[0].delivered < 10);
    }

    #[test]
    fn mesh_fault_conservation_under_load() {
        // Kill two links mid-run under uniform traffic; every offered
        // packet must be delivered, in flight, or dropped_by_fault.
        let g = Grid::square(4).unwrap();
        let mut plan = FaultPlan::new();
        plan.kill_mesh_link(300, g.node_at(1, 1), g.node_at(2, 1));
        plan.kill_mesh_link(450, g.node_at(2, 2), g.node_at(2, 1));
        let mut sim = MeshSim::with_faults(g, 1, 8, plan);
        let cfg = SimConfig::mesh();
        let mut gen = crate::traffic::TrafficGen::new(g, Pattern::UniformRandom, 0.2, 11);
        let mut offered = 0usize;
        let mut delivered = 0usize;
        for cycle in 0..900 {
            for p in crate::runner::PacketSource::generate(&mut gen, cycle, &cfg, false) {
                offered += 1;
                sim.offer(p);
            }
            sim.tick(cycle);
            delivered += sim.take_deliveries().len();
            assert_eq!(
                offered,
                delivered + sim.in_flight() + sim.dropped_by_fault() as usize,
                "conservation at cycle {cycle}"
            );
        }
        assert!(delivered > 0);
    }

    #[test]
    fn local_delivery_same_router_is_fast() {
        // src == dst is not generated by traffic patterns, but a 1-hop
        // neighbour must arrive in a handful of cycles.
        let g = Grid::square(4).unwrap();
        let mut sim = MeshSim::mesh2(g);
        sim.offer(packet(0, 0, 1, 1));
        let d = run_until_delivered(&mut sim, 50);
        assert_eq!(d[0].hops, 1);
        assert!(d[0].delivered <= 8, "one hop took {}", d[0].delivered);
    }
}
