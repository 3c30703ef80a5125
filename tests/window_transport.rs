//! Window/ACK-clocked transport (TCP-like) integration checks: ACK
//! dynamics, RTT sensitivity, determinism across engines, and conservation.

mod common;

use common::run_on_workers;
use massf_core::engine::{run_sequential, EmulationConfig};
use massf_core::prelude::*;
use massf_core::routing::RoutingTables;
use massf_core::topology::Network;

/// host0 - r0 ----(wan)---- r1 - host1, 20 ms WAN.
fn dumbbell() -> Network {
    let mut net = Network::new();
    let h0 = net.add_host("h0", 0);
    let r0 = net.add_router("r0", 0);
    let r1 = net.add_router("r1", 1);
    let h1 = net.add_host("h1", 1);
    net.add_link(h0, r0, 100.0, 100);
    net.add_link(r0, r1, 45.0, 20_000);
    net.add_link(r1, h1, 100.0, 100);
    net
}

fn windowed_flow(packets: u64, window: u32) -> FlowSpec {
    FlowSpec {
        src: 0,
        dst: 3,
        start_us: 0,
        packets,
        bytes: packets * 1500,
        packet_interval_us: 10,
        window: Some(window),
    }
}

#[test]
fn all_data_packets_delivered() {
    let net = dumbbell();
    let tables = RoutingTables::build(&net);
    let cfg = EmulationConfig::new(vec![0; 4], 1);
    let r = run_sequential(&net, &tables, &[windowed_flow(40, 4)], &cfg);
    assert_eq!(r.delivered, 40, "every data packet must arrive");
    assert_eq!(r.dropped, 0);
    // ACKs inflate kernel events: each data packet crosses 3 hops + inject
    // (4 events), each ACK crosses 3 hops (3 events, no inject event).
    assert_eq!(r.total_events(), 40 * 4 + 40 * 3);
}

#[test]
fn stop_and_wait_is_rtt_bound() {
    let net = dumbbell();
    let tables = RoutingTables::build(&net);
    let cfg = EmulationConfig::new(vec![0; 4], 1);
    // Window 1: one packet per round trip (~40.5 ms each).
    let w1 = run_sequential(&net, &tables, &[windowed_flow(10, 1)], &cfg);
    // Window 16 >= packets: pure burst, one RTT total plus serialization.
    let w16 = run_sequential(&net, &tables, &[windowed_flow(10, 16)], &cfg);
    assert!(
        w1.virtual_end_us > 5 * w16.virtual_end_us,
        "stop-and-wait {}µs should be many RTTs slower than burst {}µs",
        w1.virtual_end_us,
        w16.virtual_end_us
    );
    // Both deliver the same data.
    assert_eq!(w1.delivered, w16.delivered);
    // Stop-and-wait spends ~packets × RTT: RTT ≈ 2·(20200 µs + tx).
    let rtt = 2.0 * 20_300.0;
    let expected = 10.0 * rtt;
    let ratio = w1.virtual_end_us as f64 / expected;
    assert!(
        (0.8..1.3).contains(&ratio),
        "completion {} vs ~{expected}",
        w1.virtual_end_us
    );
}

#[test]
fn paced_flows_are_unaffected_by_the_feature() {
    // A paced flow (window: None) must behave exactly as before.
    let net = dumbbell();
    let tables = RoutingTables::build(&net);
    let cfg = EmulationConfig::new(vec![0; 4], 1);
    let paced = FlowSpec {
        src: 0,
        dst: 3,
        start_us: 0,
        packets: 20,
        bytes: 30_000,
        packet_interval_us: 500,
        window: None,
    };
    let r = run_sequential(&net, &tables, &[paced], &cfg);
    assert_eq!(r.delivered, 20);
    // No ACK traffic: events = 20 injections + 20 × 3 arrival hops.
    assert_eq!(r.total_events(), 20 + 60);
}

#[test]
fn parallel_matches_sequential_with_windows() {
    let net = dumbbell();
    let tables = RoutingTables::build(&net);
    // Split the dumbbell at the WAN link; ACKs cross engines.
    let cfg = EmulationConfig::new(vec![0, 0, 1, 1], 2).with_netflow();
    let flows = vec![
        windowed_flow(30, 3),
        FlowSpec {
            src: 3,
            dst: 0,
            start_us: 5_000,
            packets: 25,
            bytes: 37_500,
            packet_interval_us: 50,
            window: Some(5),
        },
    ];
    let seq = run_sequential(&net, &tables, &flows, &cfg);
    let par = run_on_workers(&net, &tables, &flows, &cfg);
    assert_eq!(seq.engine_events, par.engine_events);
    assert_eq!(seq.delivered, par.delivered);
    assert_eq!(seq.latency_sum_us, par.latency_sum_us);
    assert_eq!(seq.netflow, par.netflow);
    assert_eq!(seq.delivered, 55);
}

#[test]
fn acks_show_up_in_netflow() {
    let net = dumbbell();
    let tables = RoutingTables::build(&net);
    let cfg = EmulationConfig::new(vec![0; 4], 1).with_netflow();
    let r = run_sequential(&net, &tables, &[windowed_flow(20, 2)], &cfg);
    // Each router sees 20 data + 20 ack packets of the one flow.
    let total_pkts: u64 = r.netflow.iter().map(|f| f.packets).sum();
    assert_eq!(total_pkts, 2 * (20 + 20));
}

#[test]
fn window_transport_reacts_to_congestion() {
    // Two windowed flows sharing the WAN: ACK-clocking self-limits each
    // flow to roughly its share, so completion stretches vs running alone.
    let net = dumbbell();
    let tables = RoutingTables::build(&net);
    let cfg = EmulationConfig::new(vec![0; 4], 1);
    let alone = run_sequential(&net, &tables, &[windowed_flow(60, 4)], &cfg);
    let mut two = vec![windowed_flow(60, 4)];
    two.push(FlowSpec {
        src: 0,
        dst: 3,
        start_us: 0,
        packets: 60,
        bytes: 90_000,
        packet_interval_us: 10,
        window: Some(4),
    });
    let shared = run_sequential(&net, &tables, &two, &cfg);
    assert!(
        shared.virtual_end_us > alone.virtual_end_us,
        "sharing the bottleneck must stretch completion: {} vs {}",
        shared.virtual_end_us,
        alone.virtual_end_us
    );
    assert_eq!(shared.delivered, 120);
}
