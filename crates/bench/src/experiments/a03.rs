//! A3 — Ablation: pre-copy under rising dirtying rates.
//!
//! V's pre-copy converges only while the program dirties pages slower than
//! the network ships them; as the rates approach, rounds stop shrinking and
//! the final freeze balloons while total bytes multiply (Ch. 2.3's "pages
//! may be copied multiple times"). This sweep maps that breakdown.

use sprite_fs::SpritePath;
use sprite_sim::SimDuration;
use sprite_vm::{transfer, TransferParams, VmStrategy};

use crate::support::{
    dirty_heap, h, pages_for_mb, secs, standard_cluster, standard_migrator, TableWriter,
};

/// One dirty-rate measurement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrecopyRow {
    /// Pages dirtied per second while pre-copy runs.
    pub dirty_rate: f64,
    /// Final freeze time.
    pub freeze: SimDuration,
    /// Total transfer wall time.
    pub total: SimDuration,
    /// Bytes moved / image bytes (1.0 = each page crossed once).
    pub copy_amplification: f64,
}

/// Runs the sweep for a 4 MB image. The wire moves ~120 pages/s, so rates
/// beyond that cannot converge.
pub fn run(rates: &[f64]) -> Vec<PrecopyRow> {
    let image_mb = 4.0;
    let image_bytes = (image_mb * 1024.0 * 1024.0) as u64;
    let mut rows = Vec::new();
    for &rate in rates {
        let (mut cluster, t) = standard_cluster(4);
        let _ = standard_migrator(4);
        let (pid, t) = cluster
            .spawn(
                t,
                h(1),
                &SpritePath::new("/bin/sim"),
                pages_for_mb(image_mb),
                8,
            )
            .expect("spawn");
        let t = dirty_heap(&mut cluster, t, pid, image_mb);
        let mut space = cluster.pcb_mut(pid).unwrap().space.take().unwrap();
        let params = TransferParams {
            dirty_rate_pages_per_sec: rate,
            ..TransferParams::default()
        };
        let report = transfer(
            &mut space,
            VmStrategy::PreCopy,
            &mut cluster.fs,
            &mut cluster.net,
            t,
            h(1),
            h(2),
            &params,
        )
        .expect("transfer");
        cluster.pcb_mut(pid).unwrap().space = Some(space);
        rows.push(PrecopyRow {
            dirty_rate: rate,
            freeze: report.freeze_time,
            total: report.total_time,
            copy_amplification: report.bytes_moved as f64 / image_bytes as f64,
        });
    }
    rows
}

/// Renders the table.
pub fn table() -> String {
    let rows = run(&[2.0, 10.0, 20.0, 50.0, 90.0, 110.0, 150.0]);
    let mut t = TableWriter::new(
        "A3 (ablation): pre-copy vs dirtying rate (4MB image, wire ~120 pages/s)",
        &[
            "dirty pages/s",
            "freeze(s)",
            "total(s)",
            "copy amplification",
        ],
    );
    for r in &rows {
        t.row(&[
            format!("{:.0}", r.dirty_rate),
            secs(r.freeze),
            secs(r.total),
            format!("{:.2}x", r.copy_amplification),
        ]);
    }
    t.note("below the wire rate pre-copy converges to a tiny freeze; approaching it,");
    t.note("rounds stop shrinking — the total bytes multiply and the freeze balloons");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precopy_degrades_as_dirtying_approaches_wire_speed() {
        let rows = run(&[5.0, 50.0, 140.0]);
        assert!(rows[0].freeze < rows[1].freeze);
        assert!(rows[1].freeze < rows[2].freeze);
        assert!(rows[0].copy_amplification < rows[2].copy_amplification);
        // Slow dirtying: nearly a single pass.
        assert!(rows[0].copy_amplification < 1.3);
        // Past the wire rate: serious amplification.
        assert!(rows[2].copy_amplification > 1.8);
    }
}
