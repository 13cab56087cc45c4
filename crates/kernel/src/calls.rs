//! Kernel calls and their transparency dispositions.
//!
//! Appendix A of the thesis lists how every 4.3BSD-style kernel call is
//! handled so migration stays transparent. Three dispositions cover them:
//!
//! * **local** — the call only touches state the migration mechanism
//!   transferred (or per-process state like the cached PID), so the current
//!   kernel handles it;
//! * **forward home** — the call depends on state that logically stays at
//!   the home machine (time-of-day consistency, process families, the
//!   migration call itself), so the current kernel RPCs the home kernel;
//! * **file system** — the call is really a file-system operation and goes
//!   to the I/O server under the FS's own rules, wherever the process runs.
//!
//! Forwarding is the *residual* cost of transparency that experiments E4 and
//! E12 measure: "it would be possible ... to forward home every kernel call,
//! as Remote UNIX does. Unfortunately, an approach based entirely on
//! forwarding will not work in practice" (Ch. 4.3).

use std::fmt;

use crate::appendix_a;

/// How a kernel call is serviced for a migrated (foreign) process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Disposition {
    /// Handled entirely by the current kernel.
    Local,
    /// Forwarded to the home kernel by RPC.
    ForwardHome,
    /// Routed through the file system (I/O server decides).
    FileSystem,
}

/// A representative subset of the 4.3BSD-compatible kernel-call interface,
/// chosen to cover every disposition class the paper's tables exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelCall {
    /// `getpid` — PID is cached in the (transferred) PCB.
    GetPid,
    /// `getrusage` — accounting state travels with the process.
    GetRusage,
    /// `sbrk`/`brk` — grows the (transferred) heap.
    Sbrk,
    /// `sigsetmask`/`sigblock` — signal state travels with the process.
    SigSetMask,
    /// `gettimeofday` — forwarded so clocks appear consistent with home.
    GetTimeOfDay,
    /// `getpgrp` — process families are rooted at home.
    GetPgrp,
    /// `setpriority` — scheduling priority is coordinated at home.
    SetPriority,
    /// `kill` — signal delivery resolves locations via the home kernel.
    SendSignal,
    /// `mig_migrate` — the migration call itself always goes home.
    Migrate,
    /// `open`/`close`/`stat` family — name operations at the file server.
    FsName,
    /// `read`/`write` — data operations under the caching protocol.
    FsData,
    /// `select` on a pseudo-device — request to the serving process.
    FsPseudo,
}

impl KernelCall {
    /// The 4.3BSD call this stands for: its row of the Appendix-A table.
    fn bsd_call(self) -> &'static str {
        match self {
            KernelCall::GetPid => "getpid",
            KernelCall::GetRusage => "getrusage",
            KernelCall::Sbrk => "sbrk",
            KernelCall::SigSetMask => "sigsetmask",
            KernelCall::GetTimeOfDay => "gettimeofday",
            KernelCall::GetPgrp => "getpgrp",
            KernelCall::SetPriority => "setpriority",
            KernelCall::SendSignal => "kill",
            KernelCall::Migrate => "mig_migrate",
            KernelCall::FsName => "open",
            KernelCall::FsData => "read",
            KernelCall::FsPseudo => "select",
        }
    }

    /// Appendix-A disposition of this call: its row's disposition.
    pub fn disposition(self) -> Disposition {
        appendix_a::lookup(self.bsd_call())
            .expect("every kernel call is an Appendix-A row")
            .disposition
    }

    /// Calls in a deterministic order, for table generation.
    pub const ALL: [KernelCall; 12] = [
        KernelCall::GetPid,
        KernelCall::GetRusage,
        KernelCall::Sbrk,
        KernelCall::SigSetMask,
        KernelCall::GetTimeOfDay,
        KernelCall::GetPgrp,
        KernelCall::SetPriority,
        KernelCall::SendSignal,
        KernelCall::Migrate,
        KernelCall::FsName,
        KernelCall::FsData,
        KernelCall::FsPseudo,
    ];
}

impl fmt::Display for KernelCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelCall::FsName => "open/stat",
            KernelCall::FsData => "read/write",
            KernelCall::FsPseudo => "pdev-request",
            call => call.bsd_call(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_disposition_class_is_represented() {
        let mut local = 0;
        let mut home = 0;
        let mut fsys = 0;
        for c in KernelCall::ALL {
            match c.disposition() {
                Disposition::Local => local += 1,
                Disposition::ForwardHome => home += 1,
                Disposition::FileSystem => fsys += 1,
            }
        }
        assert!(local >= 3 && home >= 3 && fsys >= 3);
        assert_eq!(local + home + fsys, KernelCall::ALL.len());
    }

    #[test]
    fn every_call_resolves_to_an_appendix_a_row() {
        for c in KernelCall::ALL {
            let row = appendix_a::lookup(c.bsd_call());
            assert!(row.is_some(), "{c} names no Appendix-A row");
        }
    }

    #[test]
    fn migrate_call_always_goes_home() {
        assert_eq!(KernelCall::Migrate.disposition(), Disposition::ForwardHome);
    }

    #[test]
    fn labels_are_unique() {
        let labels: sprite_sim::DetHashSet<String> =
            KernelCall::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(labels.len(), KernelCall::ALL.len());
    }
}
