//! Appendix A: the full 4.3BSD kernel-call compatibility table.
//!
//! "This appendix lists how each system call is handled in Sprite to ensure
//! transparent process migration. Because Sprite attempts to be compatible
//! with 4.3BSD UNIX ... I list the system calls available in 4.3BSD UNIX"
//! (Appendix A). This module records the complete per-call catalogue so a
//! reader (or test) can audit the transparency story call by call, exactly
//! as the thesis's appendix allows. Each member of the coarse
//! [`KernelCall`](crate::KernelCall) enum that drives the cost model stands
//! for one row here and takes its disposition from that row.
//!
//! Dispositions follow the thesis's rules:
//! * state the migration mechanism transfers (address space, descriptors,
//!   signal masks, rusage) ⇒ **local**;
//! * state rooted at the home machine (time, process families, host
//!   identity as seen by the user's session) ⇒ **forward home**;
//! * everything that is really a file-system operation ⇒ **file system**,
//!   handled wherever the process runs under the FS's own protocols;
//! * the migration call itself always goes home.

use crate::calls::Disposition;

/// One row of the Appendix-A table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SyscallEntry {
    /// 4.3BSD call name.
    pub name: &'static str,
    /// How Sprite services it for a migrated process.
    pub disposition: Disposition,
    /// What state the disposition relies on.
    pub rationale: &'static str,
}

/// The catalogue. Grouped as the appendix groups them; order is stable.
pub(crate) const APPENDIX_A: &[SyscallEntry] = &[
    // --- process state transferred with the process => local ---
    SyscallEntry {
        name: "getpid",
        disposition: Disposition::Local,
        rationale: "PID cached in transferred PCB",
    },
    SyscallEntry {
        name: "getppid",
        disposition: Disposition::Local,
        rationale: "parent PID travels in the PCB",
    },
    SyscallEntry {
        name: "getuid",
        disposition: Disposition::Local,
        rationale: "credentials transferred",
    },
    SyscallEntry {
        name: "geteuid",
        disposition: Disposition::Local,
        rationale: "credentials transferred",
    },
    SyscallEntry {
        name: "getgid",
        disposition: Disposition::Local,
        rationale: "credentials transferred",
    },
    SyscallEntry {
        name: "getegid",
        disposition: Disposition::Local,
        rationale: "credentials transferred",
    },
    SyscallEntry {
        name: "getgroups",
        disposition: Disposition::Local,
        rationale: "credentials transferred",
    },
    SyscallEntry {
        name: "getrusage",
        disposition: Disposition::Local,
        rationale: "accounting accumulates in the PCB",
    },
    SyscallEntry {
        name: "getrlimit",
        disposition: Disposition::Local,
        rationale: "limits transferred",
    },
    SyscallEntry {
        name: "setrlimit",
        disposition: Disposition::Local,
        rationale: "limits transferred",
    },
    SyscallEntry {
        name: "umask",
        disposition: Disposition::Local,
        rationale: "creation mask transferred",
    },
    SyscallEntry {
        name: "brk",
        disposition: Disposition::Local,
        rationale: "heap is the transferred address space",
    },
    SyscallEntry {
        name: "sbrk",
        disposition: Disposition::Local,
        rationale: "heap is the transferred address space",
    },
    SyscallEntry {
        name: "sigblock",
        disposition: Disposition::Local,
        rationale: "signal mask transferred",
    },
    SyscallEntry {
        name: "sigsetmask",
        disposition: Disposition::Local,
        rationale: "signal mask transferred",
    },
    SyscallEntry {
        name: "sigpause",
        disposition: Disposition::Local,
        rationale: "signal mask transferred",
    },
    SyscallEntry {
        name: "sigvec",
        disposition: Disposition::Local,
        rationale: "handler table transferred",
    },
    SyscallEntry {
        name: "sigstack",
        disposition: Disposition::Local,
        rationale: "alternate stack is address-space state",
    },
    SyscallEntry {
        name: "fork",
        disposition: Disposition::Local,
        rationale:
            "child created where the parent runs; home kernel notified of the family addition",
    },
    SyscallEntry {
        name: "vfork",
        disposition: Disposition::Local,
        rationale: "as fork",
    },
    SyscallEntry {
        name: "execve",
        disposition: Disposition::Local,
        rationale: "new image demand-pages from the shared FS; preferred migration point",
    },
    SyscallEntry {
        name: "exit",
        disposition: Disposition::Local,
        rationale: "cleanup local; zombie status reported home",
    },
    // --- family / session / time state rooted at home => forward ---
    SyscallEntry {
        name: "gettimeofday",
        disposition: Disposition::ForwardHome,
        rationale: "clocks must appear consistent with the home session",
    },
    SyscallEntry {
        name: "settimeofday",
        disposition: Disposition::ForwardHome,
        rationale: "affects the home machine's clock",
    },
    SyscallEntry {
        name: "getitimer",
        disposition: Disposition::ForwardHome,
        rationale: "interval timers tick against home time",
    },
    SyscallEntry {
        name: "setitimer",
        disposition: Disposition::ForwardHome,
        rationale: "interval timers tick against home time",
    },
    SyscallEntry {
        name: "getpgrp",
        disposition: Disposition::ForwardHome,
        rationale: "process families rooted at home",
    },
    SyscallEntry {
        name: "setpgrp",
        disposition: Disposition::ForwardHome,
        rationale: "process families rooted at home",
    },
    SyscallEntry {
        name: "killpg",
        disposition: Disposition::ForwardHome,
        rationale: "group membership known at home",
    },
    SyscallEntry {
        name: "kill",
        disposition: Disposition::ForwardHome,
        rationale: "home kernel tracks target locations",
    },
    SyscallEntry {
        name: "wait",
        disposition: Disposition::ForwardHome,
        rationale: "children recorded in the home family table",
    },
    SyscallEntry {
        name: "wait3",
        disposition: Disposition::ForwardHome,
        rationale: "children recorded in the home family table",
    },
    SyscallEntry {
        name: "getpriority",
        disposition: Disposition::ForwardHome,
        rationale: "scheduling priority coordinated at home",
    },
    SyscallEntry {
        name: "setpriority",
        disposition: Disposition::ForwardHome,
        rationale: "scheduling priority coordinated at home",
    },
    SyscallEntry {
        name: "gethostname",
        disposition: Disposition::ForwardHome,
        rationale: "the process must keep seeing its home's name",
    },
    SyscallEntry {
        name: "gethostid",
        disposition: Disposition::ForwardHome,
        rationale: "the process must keep seeing its home's identity",
    },
    SyscallEntry {
        name: "mig_migrate",
        disposition: Disposition::ForwardHome,
        rationale: "migration is managed relative to the home machine",
    },
    // --- file-system calls => the FS's own transparency rules ---
    SyscallEntry {
        name: "open",
        disposition: Disposition::FileSystem,
        rationale: "name lookup at the server, wherever the caller is",
    },
    SyscallEntry {
        name: "creat",
        disposition: Disposition::FileSystem,
        rationale: "as open",
    },
    SyscallEntry {
        name: "close",
        disposition: Disposition::FileSystem,
        rationale: "stream release at the I/O server",
    },
    SyscallEntry {
        name: "read",
        disposition: Disposition::FileSystem,
        rationale: "caching protocol position-independent",
    },
    SyscallEntry {
        name: "write",
        disposition: Disposition::FileSystem,
        rationale: "caching protocol position-independent",
    },
    SyscallEntry {
        name: "lseek",
        disposition: Disposition::FileSystem,
        rationale: "offset lives in the (possibly shadow) stream",
    },
    SyscallEntry {
        name: "dup",
        disposition: Disposition::FileSystem,
        rationale: "descriptor tables travel; stream refcounts at the server",
    },
    SyscallEntry {
        name: "dup2",
        disposition: Disposition::FileSystem,
        rationale: "as dup",
    },
    SyscallEntry {
        name: "pipe",
        disposition: Disposition::FileSystem,
        rationale: "pipes are pseudo-device streams",
    },
    SyscallEntry {
        name: "fcntl",
        disposition: Disposition::FileSystem,
        rationale: "stream flags at the I/O server",
    },
    SyscallEntry {
        name: "select",
        disposition: Disposition::FileSystem,
        rationale: "readiness via the I/O servers",
    },
    SyscallEntry {
        name: "stat",
        disposition: Disposition::FileSystem,
        rationale: "attributes at the name server",
    },
    SyscallEntry {
        name: "lstat",
        disposition: Disposition::FileSystem,
        rationale: "attributes at the name server",
    },
    SyscallEntry {
        name: "fstat",
        disposition: Disposition::FileSystem,
        rationale: "attributes via the open stream",
    },
    SyscallEntry {
        name: "link",
        disposition: Disposition::FileSystem,
        rationale: "namespace operation at the server",
    },
    SyscallEntry {
        name: "unlink",
        disposition: Disposition::FileSystem,
        rationale: "namespace operation at the server",
    },
    SyscallEntry {
        name: "rename",
        disposition: Disposition::FileSystem,
        rationale: "namespace operation at the server",
    },
    SyscallEntry {
        name: "mkdir",
        disposition: Disposition::FileSystem,
        rationale: "namespace operation at the server",
    },
    SyscallEntry {
        name: "rmdir",
        disposition: Disposition::FileSystem,
        rationale: "namespace operation at the server",
    },
    SyscallEntry {
        name: "chdir",
        disposition: Disposition::FileSystem,
        rationale: "working directory is a stream to a directory",
    },
    SyscallEntry {
        name: "chmod",
        disposition: Disposition::FileSystem,
        rationale: "attributes at the server",
    },
    SyscallEntry {
        name: "chown",
        disposition: Disposition::FileSystem,
        rationale: "attributes at the server",
    },
    SyscallEntry {
        name: "truncate",
        disposition: Disposition::FileSystem,
        rationale: "data operation at the server",
    },
    SyscallEntry {
        name: "ftruncate",
        disposition: Disposition::FileSystem,
        rationale: "data operation via the stream",
    },
    SyscallEntry {
        name: "fsync",
        disposition: Disposition::FileSystem,
        rationale: "flush of the caller's cached blocks",
    },
    SyscallEntry {
        name: "sync",
        disposition: Disposition::FileSystem,
        rationale: "flush of the caller's cached blocks",
    },
    SyscallEntry {
        name: "access",
        disposition: Disposition::FileSystem,
        rationale: "permission check at the server",
    },
    SyscallEntry {
        name: "readlink",
        disposition: Disposition::FileSystem,
        rationale: "namespace operation at the server",
    },
    SyscallEntry {
        name: "symlink",
        disposition: Disposition::FileSystem,
        rationale: "namespace operation at the server",
    },
    SyscallEntry {
        name: "mount",
        disposition: Disposition::FileSystem,
        rationale: "domain table maintained by servers",
    },
    SyscallEntry {
        name: "socket",
        disposition: Disposition::FileSystem,
        rationale: "Internet sockets are pseudo-devices to the IP server [Che87]",
    },
    SyscallEntry {
        name: "connect",
        disposition: Disposition::FileSystem,
        rationale: "via the IP server pseudo-device",
    },
    SyscallEntry {
        name: "send",
        disposition: Disposition::FileSystem,
        rationale: "via the IP server pseudo-device",
    },
    SyscallEntry {
        name: "recv",
        disposition: Disposition::FileSystem,
        rationale: "via the IP server pseudo-device",
    },
];

/// Looks up a call by name.
pub fn lookup(name: &str) -> Option<&'static SyscallEntry> {
    APPENDIX_A.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_deduplicated_and_substantial() {
        let names: sprite_sim::DetHashSet<_> = APPENDIX_A.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), APPENDIX_A.len(), "duplicate call names");
        assert!(APPENDIX_A.len() >= 60, "appendix should be near-complete");
    }

    #[test]
    fn most_calls_do_not_forward_home() {
        // The thesis's whole point: forwarding is the exception. Fewer than
        // a quarter of the catalogue may forward.
        let count = |d| APPENDIX_A.iter().filter(|e| e.disposition == d).count();
        let home = count(Disposition::ForwardHome);
        assert!(
            home * 4 < APPENDIX_A.len(),
            "{home} forwarded of {}",
            APPENDIX_A.len()
        );
        assert!(count(Disposition::Local) > 0 && count(Disposition::FileSystem) > 0);
    }

    #[test]
    fn key_rows_match_the_thesis_rules() {
        assert_eq!(lookup("getpid").unwrap().disposition, Disposition::Local);
        assert_eq!(
            lookup("gettimeofday").unwrap().disposition,
            Disposition::ForwardHome
        );
        assert_eq!(
            lookup("mig_migrate").unwrap().disposition,
            Disposition::ForwardHome
        );
        assert_eq!(lookup("open").unwrap().disposition, Disposition::FileSystem);
        assert_eq!(lookup("execve").unwrap().disposition, Disposition::Local);
        assert!(lookup("no_such_call").is_none());
    }

    #[test]
    fn every_rationale_is_non_empty() {
        for e in APPENDIX_A {
            assert!(!e.rationale.is_empty(), "{} lacks a rationale", e.name);
        }
    }
}
