//! The standalone Arctic replay: a recorded packet schedule fed through
//! `sv_arctic::Network`'s public API alone (`inject`, `advance`,
//! `drain_delivered_into`), with the machine's topology and `QosParams`.
//! It times the network layer apart from the nodes.

use sv_arctic::{LinkParams, Network, Packet, Priority, QosParams, RoutingPolicy};
use sv_sim::Time;

/// One packet of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Send {
    /// Send time, simulated ns.
    pub at_ns: u64,
    /// Source node.
    pub src: u16,
    /// Destination node.
    pub dst: u16,
    /// High network priority.
    pub high: bool,
    /// Payload bytes (the 8-byte Arctic header is added on top).
    pub payload_bytes: u32,
}

/// Replay `schedule` (sorted by send time) through a fresh network and
/// return how many packets it delivered.
pub fn replay(
    nodes: usize,
    link: LinkParams,
    routing: RoutingPolicy,
    qos: Option<QosParams>,
    schedule: &[Send],
) -> usize {
    let mut net: Network<()> = Network::new(nodes, link, routing);
    if let Some(q) = qos {
        net.set_qos(q);
    }
    let mut delivered = Vec::with_capacity(schedule.len());
    for s in schedule {
        let now = Time::from_ns(s.at_ns);
        net.advance(now);
        net.drain_delivered_into(&mut delivered);
        let prio = if s.high {
            Priority::High
        } else {
            Priority::Low
        };
        net.inject(now, Packet::new(s.src, s.dst, prio, s.payload_bytes, ()));
    }
    while let Some(t) = net.next_event_time() {
        net.advance(t);
    }
    net.drain_delivered_into(&mut delivered);
    delivered.len()
}
