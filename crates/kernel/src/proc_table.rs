//! The cluster process table: a generational slab arena for PCBs.
//!
//! PCBs live in slots of one contiguous `Vec`; a freed slot goes on a free
//! list and is reused by the next insert *at a bumped generation*.
//! Table-minted [`ProcessId`]s embed their `(slot, generation)` handle, so
//! a lookup is one bounds check plus one generation compare — and a handle
//! that outlives its process fails that compare instead of resolving
//! whatever process reused the slot (no ABA). PIDs built with
//! [`ProcessId::new`] carry no handle and resolve through a sorted order
//! index, which doubles as the table's iteration order: everything that
//! charges per-process costs walks processes in PID order, part of the
//! simulation's determinism contract.

use std::cell::Cell;

use sprite_net::HostId;

use crate::proc::Pcb;
use crate::ProcessId;

/// Occupancy and staleness counters for a slab table (the data-plane
/// counters report prints these).
#[derive(Debug, Clone, Copy, Default)]
pub struct SlabStats {
    /// Entries currently live.
    pub live: usize,
    /// Peak simultaneous live entries.
    pub high_water: usize,
    /// Slots ever allocated (live + free-listed).
    pub capacity: usize,
    /// Lookups rejected because the handle's generation was stale.
    pub stale_lookups: u64,
}

#[derive(Debug)]
struct ProcSlot {
    generation: u32,
    pcb: Option<Pcb>,
}

/// Generational slab of process control blocks with a PID-order index.
#[derive(Debug, Default)]
pub(crate) struct ProcTable {
    slots: Vec<ProcSlot>,
    free: Vec<u32>,
    /// Live PIDs sorted by `(home, seq)` — the iteration order, and the
    /// resolution path for handle-less PIDs.
    order: Vec<ProcessId>,
    high_water: usize,
    stale_lookups: Cell<u64>,
}

impl ProcTable {
    pub(crate) fn new() -> Self {
        ProcTable::default()
    }

    /// Allocates a slot for a new process `(home, seq)` and builds its PCB
    /// via `build`, which receives the handle-carrying PID the process will
    /// be known by. Returns that PID.
    pub(crate) fn insert(
        &mut self,
        home: HostId,
        seq: u32,
        build: impl FnOnce(ProcessId) -> Pcb,
    ) -> ProcessId {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(ProcSlot {
                generation: 0,
                pcb: None,
            });
            u32::try_from(self.slots.len() - 1).expect("process table full")
        });
        let generation = self.slots[slot as usize].generation;
        let pid = ProcessId::with_handle(home, seq, slot, generation);
        debug_assert!(self.slots[slot as usize].pcb.is_none(), "slot in use");
        self.slots[slot as usize].pcb = Some(build(pid));
        match self.order.binary_search(&pid) {
            Ok(_) => unreachable!("duplicate pid {pid}"),
            Err(at) => self.order.insert(at, pid),
        }
        self.high_water = self.high_water.max(self.order.len());
        pid
    }

    /// Resolves `pid` to its slot if the process is live. A stale handle
    /// (generation mismatch) is counted and rejected — it must *not* fall
    /// back to identity resolution, or a recycled slot would ABA.
    fn live_slot(&self, pid: ProcessId) -> Option<u32> {
        match pid.slot() {
            Some(slot) => {
                let s = self.slots.get(slot as usize)?;
                if s.generation != pid.generation() || s.pcb.is_none() {
                    self.stale_lookups.set(self.stale_lookups.get() + 1);
                    return None;
                }
                Some(slot)
            }
            None => {
                let at = self.order.binary_search(&pid).ok()?;
                self.order[at].slot()
            }
        }
    }

    pub(crate) fn get(&self, pid: ProcessId) -> Option<&Pcb> {
        let slot = self.live_slot(pid)?;
        self.slots[slot as usize].pcb.as_ref()
    }

    pub(crate) fn get_mut(&mut self, pid: ProcessId) -> Option<&mut Pcb> {
        let slot = self.live_slot(pid)?;
        self.slots[slot as usize].pcb.as_mut()
    }

    pub(crate) fn contains(&self, pid: ProcessId) -> bool {
        self.live_slot(pid).is_some()
    }

    /// Removes a process, retiring its slot: the generation bumps so every
    /// outstanding handle to this process goes stale, then the slot joins
    /// the free list for reuse.
    pub(crate) fn remove(&mut self, pid: ProcessId) -> Option<Pcb> {
        let slot = self.live_slot(pid)?;
        let s = &mut self.slots[slot as usize];
        let pcb = s.pcb.take().expect("live slot holds a pcb");
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
        let at = self
            .order
            .binary_search(&pcb.pid)
            .expect("live pid is indexed");
        self.order.remove(at);
        Some(pcb)
    }

    /// Live PCBs in PID order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Pcb> {
        self.order.iter().map(move |pid| {
            let slot = pid.slot().expect("indexed pid carries a handle");
            self.slots[slot as usize]
                .pcb
                .as_ref()
                .expect("indexed pid is live")
        })
    }

    pub(crate) fn stats(&self) -> SlabStats {
        SlabStats {
            live: self.order.len(),
            high_water: self.high_water,
            capacity: self.slots.len(),
            stale_lookups: self.stale_lookups.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_sim::SimTime;

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    fn table_with(entries: &[(u32, u32)]) -> (ProcTable, Vec<ProcessId>) {
        let mut t = ProcTable::new();
        let pids = entries
            .iter()
            .map(|&(home, seq)| {
                t.insert(h(home), seq, |pid| {
                    Pcb::new(pid, None, pid.home(), SimTime::ZERO)
                })
            })
            .collect();
        (t, pids)
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let (mut t, pids) = table_with(&[(1, 1), (2, 1)]);
        assert_eq!(t.stats().live, 2);
        assert_eq!(t.get(pids[0]).unwrap().pid, pids[0]);
        let removed = t.remove(pids[0]).unwrap();
        assert_eq!(removed.pid, pids[0]);
        assert!(t.get(pids[0]).is_none());
        assert_eq!(t.stats().live, 1);
    }

    #[test]
    fn iteration_is_pid_order_not_insertion_order() {
        let (t, _) = table_with(&[(3, 1), (1, 2), (1, 1), (2, 9)]);
        let seen: Vec<String> = t.iter().map(|p| p.pid.to_string()).collect();
        assert_eq!(seen, vec!["pid1.1", "pid1.2", "pid2.9", "pid3.1"]);
    }

    #[test]
    fn handleless_pids_resolve_by_identity() {
        let (t, pids) = table_with(&[(1, 7)]);
        let plain = ProcessId::new(h(1), 7);
        assert_eq!(t.get(plain).unwrap().pid, pids[0]);
        assert!(t.contains(plain));
        assert!(t.get(ProcessId::new(h(1), 8)).is_none());
    }

    #[test]
    fn stale_handle_does_not_resolve_recycled_slot() {
        let (mut t, pids) = table_with(&[(1, 1)]);
        let stale = pids[0];
        t.remove(stale).unwrap();
        // The next insert reuses the freed slot at a bumped generation.
        let fresh = t.insert(h(1), 2, |pid| {
            Pcb::new(pid, None, pid.home(), SimTime::ZERO)
        });
        assert_eq!(t.stats().capacity, 1, "slot was reused");
        // The stale handle must fail, not alias the new occupant.
        assert!(t.get(stale).is_none(), "ABA: stale handle resolved");
        assert!(!t.contains(stale));
        assert_eq!(t.get(fresh).unwrap().pid, fresh);
        assert!(t.stats().stale_lookups >= 2);
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let (mut t, pids) = table_with(&[(1, 1), (1, 2), (1, 3)]);
        t.remove(pids[0]).unwrap();
        t.remove(pids[1]).unwrap();
        let s = t.stats();
        assert_eq!((s.live, s.high_water), (1, 3));
    }

    /// Killing a migrated process while the file server is partitioned
    /// away must not leave a live slot holding a stale forwarding entry.
    /// Before `exit` became fail-stop local, a process whose stream close
    /// could not reach its server aborted `exit` midway: the slot stayed
    /// `Active` and resident with `forwarded` still set even though the
    /// kill had already been delivered — exactly the dangling-entry
    /// aliasing this table exists to rule out.
    #[test]
    fn killing_a_migrated_process_leaves_no_stale_forwarded_entry_when_the_server_is_unreachable() {
        use crate::cluster::Cluster;
        use crate::proc::{ProcState, Signal};
        use sprite_fs::{OpenMode, SpritePath};
        use sprite_net::{CostModel, FaultPlan};
        use sprite_sim::SimDuration;

        let mut c = Cluster::new(CostModel::sun3(), 3);
        c.add_file_server(h(0), SpritePath::new("/"));
        let t = c
            .install_program(SimTime::ZERO, SpritePath::new("/bin/sh"), 8 * 1024)
            .unwrap();
        let (leader, t) = c.spawn(t, h(1), &SpritePath::new("/bin/sh"), 4, 2).unwrap();
        let (member, t) = c.fork(t, leader).unwrap();
        c.freeze(member).unwrap();
        c.relocate(member, h(2)).unwrap();
        c.thaw(member).unwrap();
        c.fs.create(&mut c.net, t, h(2), SpritePath::new("/scratch"))
            .unwrap();
        let (_fd, t) = c
            .open_fd(t, member, SpritePath::new("/scratch"), OpenMode::ReadWrite)
            .unwrap();
        assert_eq!(c.pcb(member).unwrap().forwarded, Some(h(2)));
        // Cut the file server off just before the kill: signal hops
        // between hosts 1 and 2 still deliver, but the member's stream
        // close cannot reach its server.
        c.net
            .set_policy(Box::new(FaultPlan::new(0, 0.0).with_partition(
                vec![h(0)],
                t,
                t + SimDuration::from_secs(3600),
            )));
        for pid in [member, leader] {
            c.kill(t, h(1), pid, Signal::Kill).expect(
                "exit is fail-stop local: the process dies even when closes cannot reach the server",
            );
        }
        for p in c.processes() {
            assert_ne!(p.state, ProcState::Active, "{} survived the kill", p.pid);
            assert_eq!(p.forwarded, None, "{} left a stale forwarded entry", p.pid);
        }
        assert!(
            c.host(h(2)).resident().is_empty(),
            "dead member still resident on its host"
        );
        assert_eq!(c.locate(member), None, "stale handle must not resolve");
    }
}
