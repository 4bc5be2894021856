//! Message-conservation and losslessness invariants under randomized
//! traffic — the NoC must never lose, duplicate, or reorder within a
//! wormhole, no matter what the workload does — and, for planes that
//! carry handles into a message store, no handle leaks: every message a
//! plane destroys is taken out of the store.

use bytes::Bytes;
use engines::engine::NullOffload;
use engines::tile::{Emit, EngineTile, TileConfig};
use noc::network::{MeshNetwork, NetworkConfig};
use noc::router::RouterConfig;
use noc::topology::{Placement, Topology};
use packet::{
    ChainHeader, EngineClass, EngineId, Entry, ExitKind, Message, MessageId, MessageKind, MsgRef,
    MsgStore, Slack,
};
use proptest::prelude::*;
use sched::admission::AdmissionPolicy;
use sim_core::rng::SimRng;
use sim_core::time::{Cycle, Cycles};

/// Drives a mesh with a randomized traffic script and checks exact
/// conservation: every injected message is delivered exactly once, to
/// the right destination, with its payload intact.
fn run_conservation(k: u8, width: u64, sends: &[(u8, u8, u16)], buffer: usize) {
    let topo = Topology::mesh(k, k);
    let n = topo.nodes() as u64;
    let mut net = MeshNetwork::new(
        NetworkConfig {
            topology: topo,
            width_bits: width,
            router: RouterConfig {
                input_buffer_flits: buffer,
                ejection_buffer_flits: buffer * 2,
            },
        },
        Placement::row_major(topo),
    );
    let mut expected: Vec<(u64, EngineId, usize)> = Vec::new();
    let mut now = Cycle(0);
    for (i, &(src, dst, len)) in sends.iter().enumerate() {
        let src = EngineId(u16::from(src) % n as u16);
        let dst = EngineId(u16::from(dst) % n as u16);
        let payload = Bytes::from(vec![i as u8; usize::from(len % 600)]);
        let msg = Message::builder(MessageId(i as u64), MessageKind::Internal)
            .payload(payload)
            .build();
        expected.push((i as u64, dst, usize::from(len % 600)));
        net.send(src, dst, msg, now);
    }
    let mut received: Vec<(u64, EngineId, usize)> = Vec::new();
    // Generous deadline: every message must arrive.
    for _ in 0..(sends.len() * 600 + 2000) {
        net.tick(now);
        now = now.next();
        for node in 0..n {
            if let Some(m) = net.poll_ejected(EngineId(node as u16), now) {
                received.push((m.id.0, EngineId(node as u16), m.payload.len()));
            }
        }
        if received.len() == sends.len() {
            break;
        }
    }
    assert_eq!(received.len(), sends.len(), "lossless");
    assert!(net.is_quiescent(), "nothing left in flight");
    received.sort_by_key(|&(id, _, _)| id);
    let mut exp = expected.clone();
    exp.sort_by_key(|&(id, _, _)| id);
    assert_eq!(received, exp, "exactly-once, right place, right bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation holds for arbitrary unicast scripts on a 4x4 mesh.
    #[test]
    fn mesh_conserves_random_traffic(
        sends in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..80),
        buffer in 1usize..12,
    ) {
        run_conservation(4, 64, &sends, buffer);
    }

    /// Same property with wide channels and a rectangular-ish mesh.
    #[test]
    fn mesh_conserves_wide_channels(
        sends in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..60),
    ) {
        run_conservation(5, 128, &sends, 4);
    }
}

#[test]
fn single_flit_buffers_do_not_deadlock() {
    // The pathological minimum: 1-flit input buffers, all-to-one
    // traffic. XY routing + credits must still drain everything.
    let mut sends = Vec::new();
    for s in 0..16u8 {
        for round in 0..4u16 {
            sends.push((s, 15u8, 64 + round));
        }
    }
    run_conservation(4, 64, &sends, 1);
}

#[test]
fn wormholes_never_interleave() {
    // Long messages from every node to one sink: the sink must see
    // each message's payload intact (interleaved flits would corrupt
    // reassembly, which run_conservation's byte check would catch).
    let mut rng = SimRng::new(9);
    let mut sends = Vec::new();
    for _ in 0..60 {
        sends.push((rng.gen_range(9) as u8, 8u8, 300 + rng.gen_range(200) as u16));
    }
    run_conservation(3, 64, &sends, 2);
}

/// A mesh carrying handles, with an ejection drop armed at every tile:
/// after every cycle the store holds exactly the messages in flight,
/// and nothing once drained.
#[test]
fn a_mesh_of_handles_frees_what_an_ejection_drop_destroys() {
    let topo = Topology::mesh(3, 3);
    let config = NetworkConfig {
        topology: topo,
        width_bits: 64,
        router: RouterConfig::default(),
    };
    let mut net: MeshNetwork<MsgRef> = MeshNetwork::new(config, Placement::row_major(topo));
    let mut store = MsgStore::default();
    let tiles = topo.nodes();
    for t in 0..tiles {
        net.fault_drop_next_ejection(EngineId(t as u16));
    }
    let mut rng = SimRng::new(7);
    let mut sent = 0u64;
    let mut now = Cycle(0);
    for cycle in 0..6_000u64 {
        if cycle < 3_000 && cycle.is_multiple_of(3) {
            let src = rng.gen_range(tiles as u64) as u16;
            let dst = rng.gen_range(tiles as u64) as u16;
            let msg = Message::builder(MessageId(sent), MessageKind::Internal)
                .payload(Bytes::from(vec![0u8; rng.gen_range(200) as usize]))
                .build();
            let msg = store.put(msg, Entry::Injected);
            net.send_in(EngineId(src), EngineId(dst), msg, &store, now);
            sent += 1;
        }
        net.tick(now);
        now = now.next();
        for t in 0..tiles {
            if let Some(msg) = net.poll_ejected_at(t, now, &mut store) {
                store.take(msg, ExitKind::Control);
            }
        }
        assert_eq!(store.live(), net.messages_in_flight(), "cycle {cycle}");
    }
    assert!(net.is_quiescent(), "drained");
    assert_eq!(net.lost_messages(), tiles as u64, "every armed drop fired");
    assert_eq!(store.exited(ExitKind::LostNoc), net.lost_messages());
    assert_eq!(store.live(), 0, "a drained mesh holds no handle");
}

/// A tile carrying handles, fed faster than it serves: after every
/// cycle the store holds exactly what the tile holds (its queue, its
/// server, its parked RX message), so every tail drop and every
/// intelligent-drop eviction took its victim out; a DOWN flush empties
/// the store.
#[test]
fn a_tile_of_handles_frees_what_it_drops_and_flushes() {
    for admission in [AdmissionPolicy::TailDrop, AdmissionPolicy::EvictLargestRank] {
        let mut tile: EngineTile<MsgRef> = EngineTile::new(
            EngineId(5),
            Box::new(NullOffload::new("null", EngineClass::Asic, Cycles(4))),
            TileConfig {
                queue_capacity: 4,
                admission,
            },
        );
        let mut store = MsgStore::default();
        let mut emits = Vec::new();
        for c in 0..400u32 {
            let now = Cycle(u64::from(c));
            if tile.rx_ready() {
                // Slack shrinks faster than time passes, so each arrival
                // outranks everything queued: an intelligent drop
                // evicts a queued message, not the arrival.
                let slack = Slack(2_000 - 4 * c);
                let chain = ChainHeader::uniform(&[EngineId(5), EngineId(9)], slack).unwrap();
                let msg = Message::builder(MessageId(u64::from(c)), MessageKind::EthernetFrame)
                    .chain(chain)
                    .build();
                let msg = store.put(msg, Entry::Rx);
                tile.accept_in(msg, &mut store, now);
            }
            tile.tick_in(now, &mut store, &mut emits);
            for emit in emits.drain(..) {
                let Emit::To(_, msg) = emit else {
                    panic!("a forward leaves for the next hop: {emit:?}");
                };
                store.take(msg, ExitKind::Wire);
            }
            let held =
                tile.queue_depth() + usize::from(tile.is_busy()) + usize::from(!tile.rx_ready());
            assert_eq!(store.live(), held, "{admission} at cycle {c}");
        }
        assert!(tile.drops() > 0, "{admission}: the queue never overflowed");
        let flushed = tile.watchdog_down_in(&mut store);
        assert!(flushed > 0, "{admission}: nothing to flush");
        assert_eq!(store.live(), 0, "{admission}: the flush left a handle");
        assert_eq!(store.exited(ExitKind::SchedDrop), tile.drops());
        assert_eq!(store.exited(ExitKind::Flushed), flushed);
    }
}
