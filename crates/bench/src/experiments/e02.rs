//! E2 — Virtual-memory transfer strategies (freeze time vs. total work).
//!
//! Reproduces the thesis's Ch. 4.2.1 comparison across dirty-image sizes:
//! Charlotte/LOCUS-style full copy (freeze grows linearly with size),
//! V-style pre-copy (short freeze, extra total bytes), Accent-style
//! copy-on-reference (tiny freeze, residual source dependency and per-touch
//! penalties), and Sprite's flush-to-backing-file (freeze scales with
//! *dirty* data only; the only residual dependency is the file server).

use sprite_fs::SpritePath;
use sprite_net::PAGE_SIZE;
use sprite_sim::SimDuration;
use sprite_vm::{SegmentKind, VirtAddr, VmStrategy};

use crate::support::{
    dirty_heap, h, ms, pages_for_mb, secs, standard_cluster, standard_migrator, TableWriter,
};

/// One (size, strategy) measurement.
#[derive(Debug, Clone)]
pub(crate) struct StrategyRow {
    /// Resident image size in megabytes (a quarter of it dirty).
    pub dirty_mb: f64,
    /// Strategy used.
    pub strategy: VmStrategy,
    /// Freeze time.
    pub freeze: SimDuration,
    /// Total migration wall time.
    pub total: SimDuration,
    /// Bytes moved during migration itself.
    pub bytes_moved: u64,
    /// Cost of touching 25% of the image after migration (demand paging /
    /// remote fetches — zero when pages moved eagerly).
    pub first_touch: SimDuration,
    /// Residual dependency on the *source host*.
    pub residual: bool,
}

/// Fraction of the resident image that is dirty at migration time. A
/// long-running process has flushed most of its pages to the backing file
/// already (Sprite's ordinary paging does this continuously); re-dirtying a
/// quarter is the regime the thesis's flush argument assumes.
pub(crate) const DIRTY_FRACTION: f64 = 0.25;

/// Runs the sweep. `sizes_mb` is the *resident image* size; `DIRTY_FRACTION`
/// of it is dirty.
pub fn run(sizes_mb: &[f64]) -> Vec<StrategyRow> {
    let mut rows = Vec::new();
    for &size in sizes_mb {
        for strategy in VmStrategy::ALL {
            let (mut cluster, t) = standard_cluster(4);
            let mut migrator = standard_migrator(4);
            migrator.set_vm_strategy(strategy);
            let (pid, t) = cluster
                .spawn(t, h(1), &SpritePath::new("/bin/sim"), pages_for_mb(size), 8)
                .expect("spawn");
            // Touch the whole image, flush it clean (normal paging would
            // have), then re-dirty a quarter.
            let t = dirty_heap(&mut cluster, t, pid, size);
            let t = {
                let mut space = cluster.pcb_mut(pid).unwrap().space.take().unwrap();
                let t2 = space
                    .flush_dirty(&mut cluster.fs, &mut cluster.net, t, h(1))
                    .expect("flush");
                cluster.pcb_mut(pid).unwrap().space = Some(space);
                t2
            };
            let t = dirty_heap(&mut cluster, t, pid, size * DIRTY_FRACTION);
            let report = migrator
                .migrate(&mut cluster, t, pid, h(2))
                .expect("migrate");
            let vm = report.vm.expect("vm report");
            // Touch a quarter of the image on the target and measure the
            // lazy strategies' deferred cost.
            let touch_bytes = ((size * 0.25) * 1024.0 * 1024.0) as u64 / PAGE_SIZE * PAGE_SIZE;
            let first_touch = if touch_bytes == 0 {
                SimDuration::ZERO
            } else {
                let mut space = cluster.pcb_mut(pid).unwrap().space.take().unwrap();
                let t0 = report.resumed_at;
                let (_, t1) = space
                    .read(
                        &mut cluster.fs,
                        &mut cluster.net,
                        t0,
                        h(2),
                        VirtAddr::new(SegmentKind::Heap, 0),
                        touch_bytes,
                    )
                    .expect("post-migration touch");
                cluster.pcb_mut(pid).unwrap().space = Some(space);
                t1.elapsed_since(t0)
            };
            rows.push(StrategyRow {
                dirty_mb: size,
                strategy,
                freeze: report.freeze_time,
                total: report.total_time,
                bytes_moved: vm.bytes_moved,
                first_touch,
                residual: vm.residual_source_dependency,
            });
        }
    }
    rows
}

/// Renders the table.
pub fn table() -> String {
    let rows = run(&[0.5, 1.0, 2.0, 4.0, 8.0, 16.0]);
    let mut t = TableWriter::new(
        "E2: VM transfer strategies vs image size (25% of pages dirty)",
        &[
            "imageMB",
            "strategy",
            "freeze(s)",
            "total(s)",
            "MBmoved",
            "touch25%(ms)",
            "residual",
        ],
    );
    for r in &rows {
        t.row(&[
            format!("{:.1}", r.dirty_mb),
            r.strategy.to_string(),
            secs(r.freeze),
            secs(r.total),
            format!("{:.2}", r.bytes_moved as f64 / (1024.0 * 1024.0)),
            ms(r.first_touch),
            if r.residual { "source" } else { "-" }.to_string(),
        ]);
    }
    t.note("paper shape: full-copy freeze linear in size; pre-copy small freeze, more bytes;");
    t.note("copy-on-ref near-zero freeze but residual source dependency + per-touch fetches;");
    t.note("sprite-flush freeze scales with dirty pages and leaves only a file-server dependency");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_for(strategy: VmStrategy, rows: &[StrategyRow]) -> Vec<&StrategyRow> {
        rows.iter().filter(|r| r.strategy == strategy).collect()
    }

    #[test]
    fn strategy_tradeoffs_match_the_paper() {
        let rows = run(&[1.0, 4.0]);
        let full = rows_for(VmStrategy::FullCopy, &rows);
        let pre = rows_for(VmStrategy::PreCopy, &rows);
        let cor = rows_for(VmStrategy::CopyOnReference, &rows);
        let flush = rows_for(VmStrategy::SpriteFlush, &rows);

        // Full copy: freeze grows ~linearly (4MB ≈ 4x the 1MB freeze).
        let ratio = full[1].freeze.as_secs_f64() / full[0].freeze.as_secs_f64();
        assert!((3.0..5.0).contains(&ratio), "full-copy ratio {ratio}");

        // Pre-copy freezes far less than full copy at 4MB but moves >= bytes.
        assert!(pre[1].freeze < full[1].freeze / 4);
        assert!(pre[1].bytes_moved >= full[1].bytes_moved);

        // Copy-on-reference: smallest freeze, residual dependency, and a
        // real first-touch penalty.
        assert!(cor[1].freeze < pre[1].freeze);
        assert!(cor[1].residual);
        assert!(cor[1].first_touch > SimDuration::ZERO);

        // Sprite flush: freeze below full copy, no source dependency,
        // deferred paging cost visible at first touch.
        assert!(flush[1].freeze < full[1].freeze);
        assert!(!flush[1].residual);
        assert!(flush[1].first_touch > SimDuration::ZERO);
    }

    #[test]
    fn freeze_time_orders_as_published() {
        let rows = run(&[4.0]);
        let get = |s: VmStrategy| {
            rows.iter()
                .find(|r| r.strategy == s)
                .map(|r| r.freeze)
                .unwrap()
        };
        let full = get(VmStrategy::FullCopy);
        let pre = get(VmStrategy::PreCopy);
        let cor = get(VmStrategy::CopyOnReference);
        assert!(
            cor < pre && pre < full,
            "cor {cor} < pre {pre} < full {full}"
        );
    }
}
