//! Ergonomic cluster construction.
//!
//! Setting up an experiment takes four or five steps in a fixed order
//! (file servers, programs, trace); [`ClusterBuilder`] rolls them into one
//! fluent expression on the Sun-3 cost model and is what the examples and
//! harnesses use.

use sprite_fs::{FsConfig, SpritePath};
use sprite_net::{CostModel, HostId};
use sprite_sim::SimTime;

use crate::{Cluster, KernelResult};

/// Builder for a ready-to-run [`Cluster`].
///
/// # Examples
///
/// ```
/// use sprite_kernel::ClusterBuilder;
/// use sprite_net::HostId;
///
/// # fn main() -> Result<(), sprite_kernel::KernelError> {
/// let (mut cluster, t) = ClusterBuilder::new(8)
///     .file_server(HostId::new(0), "/")
///     .program("/bin/cc", 48 * 1024)
///     .program("/bin/sim", 32 * 1024)
///     .trace(64)
///     .build()?;
/// let (pid, _t) = cluster.spawn(
///     t,
///     HostId::new(1),
///     &sprite_fs::SpritePath::new("/bin/sim"),
///     32,
///     8,
/// )?;
/// assert!(cluster.pcb(pid).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ClusterBuilder {
    hosts: usize,
    fs_config: FsConfig,
    servers: Vec<(HostId, String)>,
    programs: Vec<(String, u64)>,
    trace_capacity: Option<usize>,
}

impl ClusterBuilder {
    /// Starts a builder for a cluster of `hosts` machines with the Sun-3
    /// cost model.
    pub fn new(hosts: usize) -> Self {
        ClusterBuilder {
            hosts,
            fs_config: FsConfig::default(),
            servers: Vec::new(),
            programs: Vec::new(),
            trace_capacity: None,
        }
    }

    /// Tunes the file system.
    pub fn fs_config(mut self, config: FsConfig) -> Self {
        self.fs_config = config;
        self
    }

    /// Adds a file server exporting `prefix` on `host`. At least one server
    /// is required; if none is declared, host 0 exports `/`.
    pub fn file_server(mut self, host: HostId, prefix: &str) -> Self {
        self.servers.push((host, prefix.to_owned()));
        self
    }

    /// Adds a striped file-service group: every host in `servers` exports
    /// `prefix`, and names beneath it spread across the group by path-text
    /// hashing (`sprite_fs::ShardMap`).
    pub fn sharded_file_service(mut self, servers: &[HostId], prefix: &str) -> Self {
        for host in servers {
            self.servers.push((*host, prefix.to_owned()));
        }
        self
    }

    /// Installs an executable of `text_bytes` at `path` during build.
    pub fn program(mut self, path: &str, text_bytes: u64) -> Self {
        self.programs.push((path.to_owned(), text_bytes));
        self
    }

    /// Enables the narrative trace with the given capacity.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Builds the cluster. Returns it plus the simulated time at which the
    /// setup I/O (program installation) finished.
    ///
    /// # Errors
    ///
    /// Fails if program installation hits a file-system error (e.g. two
    /// programs at the same path).
    pub fn build(self) -> KernelResult<(Cluster, SimTime)> {
        let mut cluster = Cluster::with_fs_config(CostModel::sun3(), self.hosts, self.fs_config);
        if self.servers.is_empty() {
            cluster.add_file_server(HostId::new(0), SpritePath::new("/"));
        } else {
            for (host, prefix) in &self.servers {
                cluster.add_file_server(*host, SpritePath::new(prefix.as_str()));
            }
        }
        if let Some(capacity) = self.trace_capacity {
            cluster.enable_trace(capacity);
        }
        let mut t = SimTime::ZERO;
        for (path, bytes) in &self.programs {
            t = cluster.install_program(t, SpritePath::new(path.as_str()), *bytes)?;
        }
        Ok((cluster, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelError;

    #[test]
    fn default_server_covers_the_root() {
        let (cluster, _) = ClusterBuilder::new(2).build().unwrap();
        assert!(cluster.fs.resolve(&SpritePath::new("/anything")).is_ok());
    }

    #[test]
    fn builder_installs_everything_in_order() {
        let (mut cluster, t) = ClusterBuilder::new(4)
            .file_server(HostId::new(0), "/")
            .file_server(HostId::new(3), "/swap")
            .program("/bin/a", 8 * 1024)
            .program("/bin/b", 8 * 1024)
            .trace(8)
            .build()
            .unwrap();
        assert!(t > SimTime::ZERO, "program installation consumed time");
        assert!(cluster.program(&SpritePath::new("/bin/a")).is_some());
        assert!(cluster.program(&SpritePath::new("/bin/b")).is_some());
        assert_eq!(
            cluster.fs.resolve(&SpritePath::new("/swap/x")).unwrap(),
            HostId::new(3)
        );
        assert!(cluster.trace.is_enabled());
        // Spawning works immediately.
        let r = cluster.spawn(t, HostId::new(1), &SpritePath::new("/bin/a"), 8, 4);
        assert!(r.is_ok());
    }

    #[test]
    fn sharded_file_service_runs_programs_end_to_end() {
        let shards = [HostId::new(0), HostId::new(1)];
        let (mut cluster, t) = ClusterBuilder::new(6)
            .sharded_file_service(&shards, "/")
            .program("/bin/a", 16 * 1024)
            .program("/bin/b", 16 * 1024)
            .build()
            .unwrap();
        assert_eq!(cluster.fs.fs_shards(), 2);
        // Processes spawn and exec off the striped service transparently:
        // a spawn touches no file, and an exec reads the program's header.
        let (pid, t) = cluster
            .spawn(t, HostId::new(3), &SpritePath::new("/bin/a"), 16, 4)
            .unwrap();
        let t = cluster
            .exec(t, pid, &SpritePath::new("/bin/b"), 16, 4)
            .unwrap();
        assert!(cluster.pcb(pid).is_some());
        let (pid2, t) = cluster
            .spawn(t, HostId::new(4), &SpritePath::new("/bin/b"), 16, 4)
            .unwrap();
        cluster
            .exec(t, pid2, &SpritePath::new("/bin/a"), 16, 4)
            .unwrap();
        assert!(cluster.pcb(pid2).is_some());
        assert_eq!(cluster.stats().execs, 2);
        // Non-member hosts paid their one-time prefix-table fetch.
        assert!(cluster.fs.stats().shard_redirects >= 1);
    }

    #[test]
    fn duplicate_program_paths_error() {
        let result = ClusterBuilder::new(2)
            .program("/bin/x", 1024)
            .program("/bin/x", 1024)
            .build();
        assert!(matches!(result, Err(KernelError::Fs(_))));
    }
}
