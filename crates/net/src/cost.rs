//! The hardware cost model.
//!
//! Sprite's evaluation ran on Sun-3/75-class workstations (and later
//! DECstation 3100s) connected by a 10 Mbit/s Ethernet. We cannot run on that
//! hardware, so every timing constant the simulation uses is centralized in
//! [`CostModel`], calibrated to the era's published numbers:
//!
//! * a small kernel-to-kernel RPC round trip took ~2.6 ms \[Wel86\];
//! * bulk data moved at ~480 KB/s end-to-end through the RPC system (the
//!   10 Mbit wire rate minus protocol and copy overhead);
//! * a local kernel call cost on the order of 100 µs;
//! * a disk access cost ~20 ms, hidden most of the time by server caches;
//! * copying a 4 KB page within memory cost ~1 ms of CPU.
//!
//! A 4 KB block RPC on the Sun-3 calibration takes 11.65 ms, 8.67 ms of it
//! on the wire, so its fixed per-call cost is 26% of the transfer. A run of
//! [`CostModel::run_blocks`] consecutive blocks (one 16 KB fragment) is one
//! round trip of 38.0 ms: 16 KB per 38.0 ms, ≈ 431 KB/s of the 480 KB/s
//! wire, against ≈ 352 KB/s for single blocks. Page-outs, page-ins from
//! backing files and checkpoint images move such runs, so an isolated
//! page-in whose unit-mates are never touched pays up to 38.0 ms where one
//! page would cost 11.65 ms.
//!
//! Keeping the constants in one passive struct makes the "what if the network
//! were faster" sensitivity questions (Chapter 9 of the thesis) one-line
//! experiments, and makes it explicit that the reproduction targets *shapes
//! and ratios*, not absolute wall-clock agreement.

use sprite_sim::SimDuration;

/// Size of a virtual-memory page; Sprite used 4 KB (8 KB on some ports; the
/// evaluation's per-megabyte costs are insensitive to the choice).
pub const PAGE_SIZE: u64 = 4096;

/// All timing constants for the simulated hardware. Fields are public by
/// design: this is passive configuration data in the C-struct spirit.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// One-way wire + controller latency for any message.
    pub message_latency: SimDuration,
    /// CPU time each end spends on an RPC (marshalling, dispatch). A small
    /// RPC round trip therefore costs `2*latency + 2*processing` ≈ 2.6 ms.
    pub rpc_processing: SimDuration,
    /// Effective bulk throughput through the RPC path, bytes/second.
    pub wire_bytes_per_sec: u64,
    /// Largest fragment the RPC system puts on the wire at once.
    pub fragment_bytes: u64,
    /// Per-fragment fixed CPU overhead at the sender.
    pub fragment_overhead: SimDuration,
    /// A kernel call serviced entirely on the local host.
    pub local_kernel_call: SimDuration,
    /// CPU time to copy one [`PAGE_SIZE`] page memory-to-memory.
    pub page_copy: SimDuration,
    /// Average rotational + seek + transfer time for one disk block access.
    pub disk_access: SimDuration,
    /// Process context switch.
    pub context_switch: SimDuration,
    /// Fixed per-process CPU cost to encapsulate/instantiate kernel process
    /// state during migration (PCB, credentials, signal state).
    pub process_state_pack: SimDuration,
    /// Server-side cost to look up one pathname component (the operation
    /// Nelson identified as the file servers' biggest CPU sink \[Nel88\]).
    pub name_lookup_component: SimDuration,
    /// Server CPU per block cache operation (hit path).
    pub cache_block_op: SimDuration,
}

impl CostModel {
    /// The Sun-3-era calibration used throughout the reproduction.
    pub fn sun3() -> Self {
        CostModel {
            message_latency: SimDuration::from_micros(650),
            rpc_processing: SimDuration::from_micros(650),
            wire_bytes_per_sec: 480_000,
            fragment_bytes: 16 * 1024,
            fragment_overhead: SimDuration::from_micros(300),
            local_kernel_call: SimDuration::from_micros(100),
            page_copy: SimDuration::from_micros(1_000),
            disk_access: SimDuration::from_millis(20),
            context_switch: SimDuration::from_micros(500),
            process_state_pack: SimDuration::from_millis(3),
            name_lookup_component: SimDuration::from_micros(400),
            cache_block_op: SimDuration::from_micros(250),
        }
    }

    /// A roughly 5× faster machine/network generation (DECstation 3100 on
    /// the same Ethernet): CPU costs shrink, the wire improves less. Used by
    /// sensitivity ablations.
    pub fn decstation() -> Self {
        CostModel {
            message_latency: SimDuration::from_micros(400),
            rpc_processing: SimDuration::from_micros(200),
            wire_bytes_per_sec: 800_000,
            fragment_bytes: 16 * 1024,
            fragment_overhead: SimDuration::from_micros(80),
            local_kernel_call: SimDuration::from_micros(30),
            page_copy: SimDuration::from_micros(250),
            disk_access: SimDuration::from_millis(18),
            context_switch: SimDuration::from_micros(150),
            process_state_pack: SimDuration::from_millis(1),
            name_lookup_component: SimDuration::from_micros(120),
            cache_block_op: SimDuration::from_micros(80),
        }
    }

    /// Round-trip time of a small (single-fragment) RPC with no contention.
    pub fn small_rpc_round_trip(&self) -> SimDuration {
        self.message_latency * 2 + self.rpc_processing * 2
    }

    /// Wire occupancy (serialization time) for a payload of `bytes`.
    pub fn wire_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.wire_bytes_per_sec as f64)
    }

    /// Number of fragments a payload of `bytes` needs (at least one).
    pub(crate) fn fragments_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.fragment_bytes).max(1)
    }

    /// Blocks one block-run RPC carries: the whole pages one fragment
    /// holds, at least one (4 on both calibrations). Page-outs, page-ins
    /// from backing files and checkpoint image transfers move consecutive
    /// blocks in runs of up to this many, and a striped domain's stripe
    /// unit is one run.
    pub fn run_blocks(&self) -> u64 {
        (self.fragment_bytes / PAGE_SIZE).max(1)
    }

    /// CPU time to copy `bytes` of memory (page-granular, rounded up).
    pub fn copy_time(&self, bytes: u64) -> SimDuration {
        self.page_copy * bytes.div_ceil(PAGE_SIZE)
    }

    /// The smallest latency any inter-host message can have under this
    /// model: the one-way wire + controller latency of a zero-payload
    /// message. This is the hardware floor for the conservative-parallel
    /// engine's lookahead — no partition of the cluster can observe another
    /// partition's actions sooner than this, so any barrier cadence at or
    /// above it is safe.
    pub(crate) fn min_link_latency(&self) -> SimDuration {
        self.message_latency
    }
}

impl Default for CostModel {
    /// Defaults to the Sun-3 calibration, the hardware of the thesis's
    /// main evaluation.
    fn default() -> Self {
        CostModel::sun3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sun3_small_rpc_matches_published_round_trip() {
        let c = CostModel::sun3();
        let rtt = c.small_rpc_round_trip();
        // [Wel86] reports ~2.6ms for a small Sprite RPC on Sun-3s.
        assert_eq!(rtt, SimDuration::from_micros(2_600));
    }

    #[test]
    fn wire_time_scales_linearly() {
        let c = CostModel::sun3();
        assert_eq!(c.wire_time(480_000), SimDuration::from_secs(1));
        assert_eq!(c.wire_time(48_000), SimDuration::from_millis(100));
        assert_eq!(c.wire_time(0), SimDuration::ZERO);
    }

    #[test]
    fn fragment_counts() {
        let c = CostModel::sun3();
        assert_eq!(c.fragments_for(0), 1);
        assert_eq!(c.fragments_for(1), 1);
        assert_eq!(c.fragments_for(16 * 1024), 1);
        assert_eq!(c.fragments_for(16 * 1024 + 1), 2);
        assert_eq!(c.fragments_for(160 * 1024), 10);
    }

    #[test]
    fn a_run_is_the_pages_of_one_fragment() {
        assert_eq!(CostModel::sun3().run_blocks(), 4);
        assert_eq!(CostModel::decstation().run_blocks(), 4);
        let tiny = CostModel {
            fragment_bytes: 1024,
            ..CostModel::sun3()
        };
        assert_eq!(tiny.run_blocks(), 1);
    }

    #[test]
    fn copy_time_rounds_to_pages() {
        let c = CostModel::sun3();
        assert_eq!(c.copy_time(1), c.page_copy);
        assert_eq!(c.copy_time(PAGE_SIZE), c.page_copy);
        assert_eq!(c.copy_time(PAGE_SIZE + 1), c.page_copy * 2);
    }

    #[test]
    fn decstation_is_faster() {
        let sun = CostModel::sun3();
        let dec = CostModel::decstation();
        assert!(dec.small_rpc_round_trip() < sun.small_rpc_round_trip());
        assert!(dec.local_kernel_call < sun.local_kernel_call);
        assert!(dec.wire_bytes_per_sec > sun.wire_bytes_per_sec);
    }
}
