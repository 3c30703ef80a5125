//! Traffic-trace recording and replay (§4.1.1).
//!
//! "MaSSF records all network traffic trace of an emulation execution, and
//! then replays it without real computation in the application. When
//! replaying, it tries to send out traffic as fast as possible, but still
//! follows the real application casualty and message logic order. This is
//! a direct measurement of the mapping approaches."
//!
//! The trace here is the flow schedule itself (flows *are* the recorded
//! traffic); replay compresses the schedule: every think-time and compute
//! gap is squeezed out, but two orders are preserved —
//!
//! 1. **per-source order**: a host injects its flows in the original
//!    order, back to back;
//! 2. **message logic order**: if flow `g` delivered data *to* the host
//!    that later originated flow `f` (and `g` originally ended before `f`
//!    started), then `f` cannot start before `g`'s replayed injection ends
//!    — the causality a reply has on its request.

use massf_traffic::FlowSpec;
use std::collections::HashMap;

/// Compresses a recorded schedule for replay.
///
/// Input flows may be in any order; the original `start_us` fields define
/// causality. Output flows keep packet counts/sizes/pacing but have new
/// start times with idle gaps removed.
pub fn compress_for_replay(flows: &[FlowSpec]) -> Vec<FlowSpec> {
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by_key(|&i| (flows[i].start_us, flows[i].src, flows[i].dst));

    // ready_src[h]: when host h's injector becomes free.
    let mut ready_src: HashMap<u32, u64> = HashMap::new();
    // last_inbound[h]: latest replayed injection *end* among flows destined
    // to h whose original end preceded the candidate's original start
    // (tracked incrementally since we visit in original start order).
    let mut last_inbound: HashMap<u32, (u64, u64)> = HashMap::new(); // h -> (orig_end, new_end)

    let mut out = vec![
        FlowSpec {
            src: 0,
            dst: 0,
            start_us: 0,
            packets: 1,
            bytes: 1,
            packet_interval_us: 1,
            window: None
        };
        flows.len()
    ];
    for &i in &order {
        let f = &flows[i];
        let mut start = *ready_src.get(&f.src).unwrap_or(&0);
        // Message-logic order: data previously delivered to f.src gates f,
        // if that delivery's original end preceded f's original start.
        if let Some(&(orig_end, new_end)) = last_inbound.get(&f.src) {
            if orig_end <= f.start_us {
                start = start.max(new_end);
            }
        }
        let new = FlowSpec {
            start_us: start,
            ..f.clone()
        };
        let new_end = new.end_us() + new.packet_interval_us;
        ready_src.insert(f.src, new_end);
        // Record this flow as inbound state at its destination.
        let entry = last_inbound.entry(f.dst).or_insert((f.end_us(), new_end));
        if f.end_us() >= entry.0 {
            *entry = (f.end_us(), new_end);
        }
        out[i] = new;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(src: u32, dst: u32, start: u64, packets: u64) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            start_us: start,
            packets,
            bytes: packets * 1500,
            packet_interval_us: 100,
            window: None,
        }
    }

    #[test]
    fn gaps_are_squeezed_out() {
        // One source, three flows with huge think times.
        let flows = vec![
            f(1, 2, 0, 10),
            f(1, 2, 10_000_000, 10),
            f(1, 3, 30_000_000, 10),
        ];
        let replay = compress_for_replay(&flows);
        assert_eq!(replay[0].start_us, 0);
        assert_eq!(replay[1].start_us, replay[0].end_us() + 100);
        assert_eq!(replay[2].start_us, replay[1].end_us() + 100);
        let horizon = massf_traffic::flow::horizon_us;
        assert!(horizon(&flows) - horizon(&replay) > 25_000_000);
    }

    #[test]
    fn per_source_order_preserved() {
        let flows = vec![f(1, 2, 5_000, 3), f(1, 3, 1_000, 3)];
        let replay = compress_for_replay(&flows);
        // Original order by start time: flow 1 (at 1000) precedes flow 0.
        assert!(replay[1].start_us < replay[0].start_us);
    }

    #[test]
    fn request_response_causality_kept() {
        // Request 1→2 ends at 900; response 2→1 starts at 5000 (after
        // server think). In replay the response still waits for the
        // request's injection to finish.
        let request = f(1, 2, 0, 10); // ends at 900
        let response = f(2, 1, 5_000, 10);
        let replay = compress_for_replay(&[request, response]);
        let req_end = replay[0].end_us() + replay[0].packet_interval_us;
        assert!(
            replay[1].start_us >= req_end,
            "response at {} must follow request end {req_end}",
            replay[1].start_us
        );
    }

    #[test]
    fn concurrent_flows_stay_concurrent() {
        // Two independent sources originally overlapping: both start at 0.
        let flows = vec![f(1, 2, 0, 100), f(3, 4, 50, 100)];
        let replay = compress_for_replay(&flows);
        assert_eq!(replay[0].start_us, 0);
        assert_eq!(replay[1].start_us, 0, "independent flow needn't wait");
    }

    #[test]
    fn packet_structure_unchanged() {
        let flows = vec![f(1, 2, 12345, 7)];
        let replay = compress_for_replay(&flows);
        assert_eq!(replay[0].packets, 7);
        assert_eq!(replay[0].bytes, flows[0].bytes);
        assert_eq!(replay[0].packet_interval_us, 100);
    }

    #[test]
    fn empty_schedule() {
        assert!(compress_for_replay(&[]).is_empty());
    }
}
