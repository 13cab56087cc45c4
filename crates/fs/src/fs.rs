//! The network-wide file system facade.
//!
//! [`SpriteFs`] wires together the per-server state, the per-client block
//! caches and the stream table, and charges every operation's simulated cost
//! to the network and the server CPUs. It implements the behaviour Chapter 5
//! of the thesis depends on:
//!
//! * name lookup at the server, costed per pathname component;
//! * client caching with the \[NWO88\] consistency protocol — recall of dirty
//!   blocks on sequential write-sharing, caching disabled on concurrent
//!   write-sharing;
//! * streams with server-managed (shadow) access positions once migration
//!   spreads a stream across hosts;
//! * paging traffic for the VM system through backing files;
//! * pseudo-devices for IPC with user-level servers \[WO88\].
//!
//! Every public operation takes the current simulated time and the shared
//! typed [`Transport`], and returns its completion time alongside its
//! result. Each server interaction is tagged with its [`RpcOp`] so the
//! transport's per-op table attributes file traffic to opens, lookups,
//! block reads/writes, consistency actions and paging separately.
//!
//! A block crosses between a client and a server through one helper each
//! way, and every flush (fsync, close, recall, cache disable, stream
//! migration, eviction) writes back through one loop under one rule: a
//! cached block stops being dirty only once its server has stored it. A
//! write-back that fails leaves its block, and every block after it,
//! dirty in the client's cache for the next flush.

use sprite_net::{
    wire_size, HostId, RpcError, RpcOp, SendError, Transport, CONTROL_BYTES, PAGE_SIZE,
};
use sprite_sim::{DetHashMap, DetHashSet, SimDuration, SimTime, StateDigest};

use crate::cache::{BlockAddr, BlockCache};
use crate::replica::ReplicaTable;
use crate::server::{write_frame, Frame, ServerState};
use crate::shard::ShardMap;
use crate::stream::{MoveOutcome, ReleaseOutcome, StreamId, StreamTable};
use crate::{FileId, FileKind, OpenMode, SpritePath};

/// Tunables for the file system. A host always flushes its dirty blocks
/// of a file when it drops its last reference to it (see
/// [`SpriteFs::close`]); that is not a setting.
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// Client block-cache capacity, in blocks (Sprite workstations devoted a
    /// few megabytes of main memory to the FS cache).
    pub client_cache_blocks: usize,
    /// Server block-cache capacity, in blocks.
    pub server_cache_blocks: usize,
    /// Cache name-to-file translations at clients, skipping the server's
    /// per-component lookup work on repeat opens. Sprite did NOT have this
    /// (the consistency of name caches is hard), and Nelson estimated adding
    /// it "would reduce file server utilization by as much as a factor of
    /// two" \[Nel88\] — the A1 ablation measures exactly that. Name removal
    /// invalidates other hosts' entries at no modelled cost.
    pub client_name_caching: bool,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig {
            client_cache_blocks: 1024, // 4 MB
            server_cache_blocks: 8192, // 32 MB
            client_name_caching: false,
        }
    }
}

/// Why a file-system operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// No such file.
    NotFound(SpritePath),
    /// Name already exists.
    AlreadyExists(SpritePath),
    /// No server exports a domain covering the path.
    NoDomain(SpritePath),
    /// The stream does not exist or is not held by the acting host.
    BadStream(StreamId),
    /// The stream's mode forbids the operation.
    BadMode(StreamId),
    /// Operation not valid for this file kind.
    WrongKind(FileId),
    /// A cross-kernel RPC the operation depended on failed (timeout,
    /// partition, crashed peer); carries the transport's diagnosis.
    Rpc(RpcError),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file: {p}"),
            FsError::AlreadyExists(p) => write!(f, "name already exists: {p}"),
            FsError::NoDomain(p) => write!(f, "no server exports a domain for {p}"),
            FsError::BadStream(s) => write!(f, "bad stream reference: {s}"),
            FsError::BadMode(s) => write!(f, "operation violates open mode of {s}"),
            FsError::WrongKind(id) => write!(f, "operation not valid for {id}"),
            FsError::Rpc(e) => write!(f, "rpc failed: {e}"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<RpcError> for FsError {
    fn from(e: RpcError) -> Self {
        FsError::Rpc(e)
    }
}

impl From<SendError> for FsError {
    fn from(e: SendError) -> Self {
        FsError::Rpc(e.into())
    }
}

/// Result alias for file-system operations.
pub type FsResult<T> = Result<T, FsError>;

/// Operation counters for the evaluation tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsStats {
    /// Name lookups performed at servers.
    pub lookups: u64,
    /// Stream opens.
    pub opens: u64,
    /// Stream closes.
    pub closes: u64,
    /// Blocks fetched from servers into client caches.
    pub block_fetches: u64,
    /// Dirty blocks written back to servers.
    pub block_writebacks: u64,
    /// Consistency recalls (flush demanded from a previous writer).
    pub consistency_recalls: u64,
    /// Times caching was disabled by concurrent write-sharing.
    pub cache_disables: u64,
    /// Read/write operations that bypassed caching.
    pub uncached_ops: u64,
    /// Operations that paid a shadow-stream round trip for the offset.
    pub shadow_ops: u64,
    /// Bytes returned by reads.
    pub bytes_read: u64,
    /// Bytes accepted by writes.
    pub bytes_written: u64,
    /// VM page-ins served.
    pub pageins: u64,
    /// VM page-outs served.
    pub pageouts: u64,
    /// Pseudo-device request/response round trips.
    pub pseudo_requests: u64,
    /// Opens that skipped the server lookup thanks to a client name cache.
    pub name_cache_hits: u64,
    /// First-contact prefix-table fetches for striped domains.
    pub shard_redirects: u64,
    /// Block fetches served by a read replica instead of the home server.
    pub replica_hits: u64,
    /// Replica copies dropped because a write-open bumped the version.
    pub replica_invalidates: u64,
}

/// One server daemon's load sample, for the evaluation tables. The
/// sharded service reports these per server instead of folding everything
/// into one aggregate, so the worst-loaded daemon is visible.
#[derive(Debug, Clone, Copy)]
pub struct ServerLoad {
    /// The machine the daemon runs on.
    pub host: HostId,
    /// Total CPU busy time.
    pub busy: SimDuration,
    /// Total time requests waited for the CPU after arriving.
    pub queue_wait: SimDuration,
    /// Requests serviced by the CPU.
    pub requests: u64,
    /// Block touches served (memory-cache hits and misses).
    pub block_ops: u64,
    /// Block touches that went to disk.
    pub disk_reads: u64,
}

/// The shared, network-wide file system.
///
/// # Examples
///
/// ```
/// use sprite_fs::{FsConfig, OpenMode, SpriteFs, SpritePath};
/// use sprite_net::{CostModel, HostId, Transport};
/// use sprite_sim::SimTime;
///
/// # fn main() -> Result<(), sprite_fs::FsError> {
/// let mut net = Transport::new(CostModel::sun3(), 4);
/// let mut fs = SpriteFs::new(FsConfig::default(), 4);
/// fs.add_server(HostId::new(0), SpritePath::new("/"));
///
/// let client = HostId::new(1);
/// let t0 = SimTime::ZERO;
/// let (_, t1) = fs.create(&mut net, t0, client, SpritePath::new("/tmp/x"))?;
/// let (stream, t2) = fs.open(&mut net, t1, client, SpritePath::new("/tmp/x"), OpenMode::ReadWrite)?;
/// let t3 = fs.write(&mut net, t2, client, stream, b"hello sprite")?;
/// fs.seek(stream, 0)?;
/// let mut data = Vec::new();
/// let _t4 = fs.read(&mut net, t3, client, stream, 12, &mut data)?;
/// assert_eq!(data, b"hello sprite");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SpriteFs {
    shards: ShardMap,
    /// Dense per-host server table: `servers[h.index()]` is `Some` exactly
    /// when host `h` runs a file server. One bounds check per access.
    servers: Vec<Option<ServerState>>,
    clients: Vec<BlockCache>,
    name_caches: Vec<DetHashMap<SpritePath, FileId>>,
    /// Striped-domain prefixes each host has fetched the member table for
    /// (first contact pays one `fs-shard-redirect` round trip).
    shard_known: Vec<DetHashSet<SpritePath>>,
    replicas: ReplicaTable,
    streams: StreamTable,
    /// Dense placement table indexed by the file's sequential id: the
    /// server storing each live file and the shard group it was created
    /// under.
    placement: Vec<Option<(HostId, u16)>>,
    next_file: u64,
    stats: FsStats,
    config: FsConfig,
}

impl SpriteFs {
    /// Creates a file system for a cluster of `hosts` machines with no
    /// servers yet; call [`SpriteFs::add_server`] before creating files.
    pub fn new(config: FsConfig, hosts: usize) -> Self {
        SpriteFs {
            shards: ShardMap::new(),
            servers: (0..hosts).map(|_| None).collect(),
            clients: (0..hosts)
                .map(|_| BlockCache::new(config.client_cache_blocks))
                .collect(),
            name_caches: vec![DetHashMap::default(); hosts],
            shard_known: vec![DetHashSet::default(); hosts],
            replicas: ReplicaTable::new(),
            streams: StreamTable::new(),
            placement: Vec::new(),
            next_file: 1,
            stats: FsStats::default(),
            config,
        }
    }

    /// Declares that `host` runs a file server exporting the subtree at
    /// `prefix`. Longest-prefix match routes names to domains; registering
    /// a second host under the *same* prefix turns the domain into a
    /// striped group whose names are spread across the members by hashing
    /// the path text (see [`crate::shard::ShardMap`]).
    pub fn add_server(&mut self, host: HostId, prefix: SpritePath) {
        let slot = &mut self.servers[host.index()];
        if slot.is_none() {
            *slot = Some(ServerState::new(host, self.config.server_cache_blocks));
        }
        self.shards.add(host, prefix);
    }

    /// Which server owns `path`: longest prefix picks the domain group,
    /// the path-text hash picks the member.
    pub fn resolve(&self, path: &SpritePath) -> FsResult<HostId> {
        self.shards
            .route(path)
            .map(|(_, h)| h)
            .ok_or_else(|| FsError::NoDomain(path.clone()))
    }

    /// The widest server-group size — 1 means the namespace is unsharded.
    pub fn fs_shards(&self) -> usize {
        self.shards.max_group_size()
    }

    /// Operation counters so far.
    pub fn stats(&self) -> FsStats {
        self.stats
    }

    /// Resets operation counters (measurement-phase boundary).
    pub fn reset_stats(&mut self) {
        self.stats = FsStats::default();
    }

    /// Read access to a server's state (diagnostics, invariant checks).
    pub fn server(&self, host: HostId) -> Option<&ServerState> {
        self.servers.get(host.index()).and_then(|s| s.as_ref())
    }

    /// Read access to the stream table.
    pub fn streams(&self) -> &StreamTable {
        &self.streams
    }

    /// Folds the file system's observable state into `d`: operation
    /// counters, the stream table (live streams in slot order plus slab
    /// occupancy), and each server's CPU horizon, stored-file count and
    /// disk reads, in host order.
    pub fn digest_into(&self, d: &mut StateDigest) {
        let Self {
            shards: _, // routing topology fixed by add_server before runs
            servers,
            clients,
            name_caches,
            shard_known,
            replicas,
            streams,
            placement,
            next_file,
            stats,
            config: _, // immutable run parameters
        } = self;
        let FsStats {
            lookups,
            opens,
            closes,
            block_fetches,
            block_writebacks,
            consistency_recalls,
            cache_disables,
            uncached_ops,
            shadow_ops,
            bytes_read,
            bytes_written,
            pageins,
            pageouts,
            pseudo_requests,
            name_cache_hits,
            shard_redirects,
            replica_hits,
            replica_invalidates,
        } = *stats;
        for v in [
            lookups,
            opens,
            closes,
            block_fetches,
            block_writebacks,
            consistency_recalls,
            cache_disables,
            uncached_ops,
            shadow_ops,
            bytes_read,
            bytes_written,
            pageins,
            pageouts,
            pseudo_requests,
            name_cache_hits,
            shard_redirects,
            replica_hits,
            replica_invalidates,
            *next_file,
        ] {
            d.write_u64(v);
        }
        streams.digest_into(d);
        replicas.digest_into(d);
        for server in servers.iter().flatten() {
            d.write_usize(server.host.index());
            d.write_u64(server.cpu.horizon().as_micros());
            d.write_usize(server.file_count());
            d.write_u64(server.disk_reads());
            d.write_u64(server.queue_wait().as_micros());
            d.write_u64(server.block_ops());
        }
        // Per-client caching state: block caches, name caches, and the
        // shard-prefix tables a host has learned. All folded in host order
        // with path-sorted keys, so the bytes never depend on map
        // iteration order.
        for cache in clients {
            cache.digest_into(d);
        }
        for names in name_caches {
            d.write_usize(names.len());
            let mut entries: Vec<(&SpritePath, &FileId)> = names.iter().collect();
            entries.sort_by_key(|(p, _)| *p);
            for (path, file) in entries {
                d.write_str(path.as_str());
                d.write_u64(file.raw());
            }
        }
        for known in shard_known {
            d.write_usize(known.len());
            let mut prefixes: Vec<&SpritePath> = known.iter().collect();
            prefixes.sort();
            for p in prefixes {
                d.write_str(p.as_str());
            }
        }
        // The placement table grows as files are created; a divergent
        // creation order shows up here even before any I/O touches it.
        // Homes fold first, then groups.
        d.write_usize(placement.len());
        for place in placement {
            d.write_usize(place.map_or(0, |(home, _)| home.index() + 1));
        }
        for place in placement {
            d.write_u32(place.map_or(0, |(_, group)| u32::from(group) + 1));
        }
    }

    /// Per-server load samples in host order: the sharded service breaks
    /// the old single-server contention story out per daemon.
    pub fn server_loads(&self) -> Vec<ServerLoad> {
        self.servers
            .iter()
            .flatten()
            .map(|s| ServerLoad {
                host: s.host,
                busy: s.cpu.busy_time(),
                queue_wait: s.queue_wait(),
                requests: s.cpu.requests(),
                block_ops: s.block_ops(),
                disk_reads: s.disk_reads(),
            })
            .collect()
    }

    /// Busy time of the worst-loaded server (the e05 saturation signal).
    pub fn server_busy_max(&self) -> SimDuration {
        self.servers
            .iter()
            .flatten()
            .map(|s| s.cpu.busy_time())
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The server host storing `file`.
    pub(crate) fn home_of(&self, file: FileId) -> Option<HostId> {
        self.placed(file).map(|(home, _)| home)
    }

    /// Every backing (swap) file the servers store, in id order.
    pub fn backing_files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.placement.iter().enumerate().filter_map(|(i, place)| {
            let id = FileId::new(i as u64);
            let file = self.srv(place.as_ref()?.0).file(id)?;
            matches!(file.kind, FileKind::Backing).then_some(id)
        })
    }

    // ----- internal helpers ------------------------------------------------

    fn srv(&self, host: HostId) -> &ServerState {
        self.servers[host.index()].as_ref().expect("known server")
    }

    fn srv_mut(&mut self, host: HostId) -> &mut ServerState {
        self.servers[host.index()].as_mut().expect("known server")
    }

    /// The server storing `file` and the shard group it was created under.
    fn placed(&self, file: FileId) -> Option<(HostId, u16)> {
        self.placement.get(file.raw() as usize).copied().flatten()
    }

    /// Charges one client→server service interaction at the op's canonical
    /// wire sizes: a local kernel call if the client *is* the server
    /// machine, otherwise a typed RPC whose service time queues on the
    /// server CPU. Remote charges surface the transport's [`RpcError`] as
    /// [`FsError::Rpc`]; local calls cannot fail.
    fn charge_typed(
        &mut self,
        net: &mut Transport,
        op: RpcOp,
        now: SimTime,
        client: HostId,
        server: HostId,
        extra: SimDuration,
    ) -> FsResult<SimTime> {
        let size = wire_size(op);
        self.charge_sized(
            net,
            op,
            now,
            client,
            server,
            size.request,
            size.reply,
            extra,
        )
    }

    /// Like [`SpriteFs::charge_typed`] but with caller-sized payloads, for
    /// ops that move variable amounts of data: a run of blocks either way
    /// (only through [`SpriteFs::block_to_server`] and
    /// [`SpriteFs::block_from_server`]) or a whole replica copy.
    #[expect(clippy::too_many_arguments)]
    fn charge_sized(
        &mut self,
        net: &mut Transport,
        op: RpcOp,
        now: SimTime,
        client: HostId,
        server: HostId,
        req_bytes: u64,
        reply_bytes: u64,
        extra: SimDuration,
    ) -> FsResult<SimTime> {
        let srv = self.srv_mut(server);
        if client == server {
            let local = net.cost().local_kernel_call;
            Ok(srv
                .cpu
                .acquire(now + local, extra + net.cost().cache_block_op))
        } else {
            let d = net.send_sized(
                op,
                now,
                client,
                server,
                req_bytes,
                reply_bytes,
                extra,
                Some(&mut srv.cpu),
            )?;
            Ok(d.done)
        }
    }

    /// Carries `len` bytes of the run of `blocks` consecutive blocks of
    /// `file` from `first` on, from `host` to the server `io`, as one `op`
    /// RPC served with one cache operation per block, then touches each
    /// block in `io`'s memory cache. The caller stores the bytes, once
    /// this returns `Ok`.
    #[expect(clippy::too_many_arguments)]
    fn block_to_server(
        &mut self,
        net: &mut Transport,
        op: RpcOp,
        now: SimTime,
        host: HostId,
        io: HostId,
        file: FileId,
        first: u64,
        blocks: u64,
        len: u64,
    ) -> FsResult<SimTime> {
        let extra = net.cost().cache_block_op * blocks;
        let reply = CONTROL_BYTES;
        let t = self.charge_sized(net, op, now, host, io, len + CONTROL_BYTES, reply, extra)?;
        let srv = self.srv_mut(io);
        for block in first..first + blocks {
            srv.touch_block(file, block);
        }
        Ok(t)
    }

    /// Serves the run of `blocks` consecutive blocks of `file` from
    /// `first` on, from the server `io` to `host`, as one `op` RPC: one
    /// cache operation per block, plus a disk access for each block not
    /// in `io`'s memory cache, and a page per block in the reply. The
    /// caller takes the bytes.
    #[expect(clippy::too_many_arguments)]
    fn block_from_server(
        &mut self,
        net: &mut Transport,
        op: RpcOp,
        now: SimTime,
        host: HostId,
        io: HostId,
        file: FileId,
        first: u64,
        blocks: u64,
    ) -> FsResult<SimTime> {
        let srv = self.srv_mut(io);
        let misses = (first..first + blocks)
            .filter(|&block| !srv.touch_block(file, block))
            .count() as u64;
        let extra = net.cost().cache_block_op * blocks + net.cost().disk_access * misses;
        let request = wire_size(op).request;
        let reply = blocks * PAGE_SIZE + CONTROL_BYTES;
        self.charge_sized(net, op, now, host, io, request, reply, extra)
    }

    /// Writes one dirty block of `host`'s cache back to the file's home
    /// server, which stores the client's frame by reference. If the RPC
    /// fails, the block is re-marked dirty: its copy stayed cached, and it
    /// stays scheduled for the next flush.
    fn write_back_block(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        addr: BlockAddr,
        data: Frame,
    ) -> FsResult<SimTime> {
        let BlockAddr { file, block } = addr;
        let server = self.home_of(file).expect("file has a home");
        let len = data.len() as u64;
        let op = RpcOp::FsBlockWrite;
        let done = match self.block_to_server(net, op, now, host, server, file, block, 1, len) {
            Ok(done) => done,
            Err(e) => {
                self.clients[host.index()].mark_dirty(addr);
                return Err(e);
            }
        };
        if let Some(f) = self.srv_mut(server).file_mut(file) {
            f.put_frame(block, data);
        }
        self.stats.block_writebacks += 1;
        Ok(done)
    }

    /// Writes `host`'s dirty blocks of `file` back to its server, in block
    /// order: the one flush loop. A block stops being dirty only once its
    /// server has stored it, so a failed write-back leaves that block and
    /// every later one dirty.
    fn flush_file(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        file: FileId,
    ) -> FsResult<SimTime> {
        let mut dirty = self.clients[host.index()]
            .take_dirty_blocks(file)
            .into_iter();
        let mut t = now;
        while let Some((addr, data)) = dirty.next() {
            t = match self.write_back_block(net, t, host, addr, data) {
                Ok(done) => done,
                Err(e) => {
                    for (later, _) in dirty {
                        self.clients[host.index()].mark_dirty(later);
                    }
                    return Err(e);
                }
            };
        }
        Ok(t)
    }

    /// Writes back the dirty block that caching `addr` on `host` would
    /// evict, before the insert, so the block stays cached and dirty if
    /// the write-back fails.
    fn make_room(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        addr: BlockAddr,
    ) -> FsResult<SimTime> {
        match self.clients[host.index()].take_dirty_victim(addr) {
            Some((victim, data)) => self.write_back_block(net, now, host, victim, data),
            None => Ok(now),
        }
    }

    /// Recalls all dirty blocks of `file` from `host` (server-initiated
    /// flush): one consistency notice, then the flush. Returns completion
    /// time.
    fn recall_dirty(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        file: FileId,
    ) -> FsResult<SimTime> {
        if self.clients[host.index()].dirty_block_count(file) == 0 {
            return Ok(now);
        }
        let server = self.home_of(file).expect("file has a home");
        // The recall request itself.
        let t = if host == server {
            now
        } else {
            net.send(RpcOp::FsConsistency, now, server, host, None)?
                .done
        };
        let t = self.flush_file(net, t, host, file)?;
        self.stats.consistency_recalls += 1;
        Ok(t)
    }

    /// Flushes `host`'s dirty blocks of `file`, then drops every cached
    /// block of it (caching got disabled, or the copies may be stale). A
    /// failed flush drops nothing.
    fn invalidate_on_host(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        file: FileId,
    ) -> FsResult<SimTime> {
        let t = self.flush_file(net, now, host, file)?;
        self.clients[host.index()].invalidate_file(file);
        Ok(t)
    }

    /// Routes `path` to its owning server, charging the first-contact
    /// `fs-shard-redirect` round trip when `host` has never talked to this
    /// striped domain before (a client learns the member table from the
    /// group's anchor server once, then routes directly). Group members
    /// already hold the table and never pay the redirect.
    fn route_charged(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        path: &SpritePath,
    ) -> FsResult<(u16, HostId, SimTime)> {
        let (gi, g) = self
            .shards
            .group_of(path)
            .ok_or_else(|| FsError::NoDomain(path.clone()))?;
        let (gi, anchor, owner) = (gi as u16, g.servers[0], g.owner_of(path));
        // The group's prefix, when this is the host's first contact.
        let first_contact = (g.servers.len() > 1
            && !g.servers.contains(&host)
            && !self.shard_known[host.index()].contains(&g.prefix))
        .then(|| g.prefix.clone());
        let mut t = now;
        if let Some(prefix) = first_contact {
            if host != anchor {
                t = self.charge_typed(
                    net,
                    RpcOp::FsShardRedirect,
                    t,
                    host,
                    anchor,
                    SimDuration::ZERO,
                )?;
            }
            self.shard_known[host.index()].insert(prefix);
            self.stats.shard_redirects += 1;
        }
        Ok((gi, owner, t))
    }

    /// The shard-group peers of `home` for `file`, or empty when the file
    /// lives in a single-server domain.
    fn group_peers(&self, file: FileId, home: HostId) -> Vec<HostId> {
        self.placed(file)
            .and_then(|(_, gi)| self.shards.group(gi as usize))
            .map(|g| g.servers.iter().copied().filter(|&s| s != home).collect())
            .unwrap_or_default()
    }

    /// Pushes read replicas of a hot file to its group peers: one
    /// `fs-replica-read` pull per peer, sized to the file, served by the
    /// home CPU. A peer whose pull fails is simply left out; the read that
    /// triggered the install never fails because of it. Only regular,
    /// cacheable files with no open writers are eligible — anything else
    /// and a peer copy could go stale outside the open/close protocol.
    fn try_install_replicas(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        file: FileId,
        home: HostId,
        peers: Vec<HostId>,
    ) -> SimTime {
        let (eligible, version, size) = match self.srv(home).file(file) {
            Some(f) => (
                matches!(f.kind, FileKind::Regular)
                    && f.cacheable
                    && f.writer_hosts().next().is_none(),
                f.version,
                f.logical_size(),
            ),
            None => (false, 0, 0),
        };
        if !eligible {
            return now;
        }
        let blocks = size.div_ceil(PAGE_SIZE).max(1);
        let extra = net.cost().cache_block_op;
        let mut t = now;
        let mut installed = Vec::new();
        for peer in peers {
            if let Ok(done) = self.charge_sized(
                net,
                RpcOp::FsReplicaRead,
                t,
                peer,
                home,
                CONTROL_BYTES,
                size + CONTROL_BYTES,
                extra,
            ) {
                t = done;
                // The copy lands in the peer's memory cache: warm it so
                // replica serves reflect residency, not phantom misses.
                let srv = self.srv_mut(peer);
                for b in 0..blocks {
                    srv.touch_block(file, b);
                }
                installed.push(peer);
            }
        }
        if !installed.is_empty() {
            // The home server joins the serve rotation: it already holds
            // the authoritative copy, and leaving it out would swap the
            // read load onto the peers instead of spreading it.
            installed.push(home);
            self.replicas.install(file, installed, version);
        }
        t
    }

    /// Drops `file`'s replica set, notifying each peer with one
    /// `fs-replica-invalidate` (home-initiated, like the consistency
    /// notices). The set is gone before any notice is sent, so even a
    /// notice that fails leaves no path to a stale replica read.
    fn invalidate_replicas(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        file: FileId,
    ) -> FsResult<SimTime> {
        let Some(peers) = self.replicas.drop_set(file) else {
            return Ok(now);
        };
        let home = self.home_of(file).expect("replicated file has a home");
        let mut t = now;
        for peer in peers {
            // The home server is in the serve rotation but holds the
            // authoritative copy; only actual peers get a notice.
            if peer != home {
                self.stats.replica_invalidates += 1;
                t = net
                    .send(RpcOp::FsReplicaInvalidate, t, home, peer, None)?
                    .done;
            }
        }
        Ok(t)
    }

    // ----- namespace operations -------------------------------------------

    /// Creates a regular file at `path`.
    pub fn create(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        path: SpritePath,
    ) -> FsResult<(FileId, SimTime)> {
        self.create_kind(net, now, host, path, FileKind::Regular)
    }

    /// Creates a backing (swap) file for the VM system.
    pub fn create_backing(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        path: SpritePath,
    ) -> FsResult<(FileId, SimTime)> {
        self.create_kind(net, now, host, path, FileKind::Backing)
    }

    /// Creates a pseudo-device served by a user process on `server_host`.
    pub fn create_pseudo_device(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        path: SpritePath,
        server_process_host: HostId,
    ) -> FsResult<(FileId, SimTime)> {
        self.create_kind(
            net,
            now,
            host,
            path,
            FileKind::Pseudo {
                server_process_host,
            },
        )
    }

    fn create_kind(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        path: SpritePath,
        kind: FileKind,
    ) -> FsResult<(FileId, SimTime)> {
        let (group, server, t) = self.route_charged(net, now, host, &path)?;
        let lookup = net.cost().name_lookup_component * path.depth();
        let done = self.charge_typed(net, RpcOp::FsLookup, t, host, server, lookup)?;
        self.stats.lookups += 1;
        let id = FileId::new(self.next_file);
        let srv = self.srv_mut(server);
        match srv.create(path.clone(), id, kind) {
            Some(id) => {
                self.next_file += 1;
                let i = id.raw() as usize;
                if self.placement.len() <= i {
                    self.placement.resize(i + 1, None);
                }
                self.placement[i] = Some((server, group));
                Ok((id, done))
            }
            None => Err(FsError::AlreadyExists(path)),
        }
    }

    /// Removes a name. Fails if the file does not exist. Every host's
    /// cached blocks of the file go with it, dirty ones included, at no
    /// modelled cost, like the name caches.
    ///
    /// Divergence from UNIX: streams still open on the file read end-of-file
    /// afterwards rather than retaining the old contents until close.
    /// Sprite's servers kept unlinked-but-open files alive; the simulation
    /// truncates instead, which no workload in the evaluation exercises
    /// (pinned by `unlink_while_open_reads_eof`).
    pub fn unlink(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        path: &SpritePath,
    ) -> FsResult<SimTime> {
        let (_, server, t) = self.route_charged(net, now, host, path)?;
        let lookup = net.cost().name_lookup_component * path.depth();
        let mut done = self.charge_typed(net, RpcOp::FsLookup, t, host, server, lookup)?;
        self.stats.lookups += 1;
        let id = match self.srv(server).lookup(path) {
            Some(id) => id,
            None => return Err(FsError::NotFound(path.clone())),
        };
        // Peer replica copies of the dying file must go first.
        done = self.invalidate_replicas(net, done, id)?;
        self.replicas.forget(id);
        self.srv_mut(server).unlink(path);
        self.placement[id.raw() as usize] = None;
        for cache in &mut self.clients {
            cache.invalidate_file(id);
        }
        for cache in &mut self.name_caches {
            cache.remove(path);
        }
        Ok(done)
    }

    // ----- stream operations ------------------------------------------------

    /// Opens `path` from `host`, running the consistency protocol. The
    /// server grants the open, the recalls and invalidations it asks for
    /// run, and only then does the server commit the open record (and, for
    /// a write open, the version bump and the last writer), so an open
    /// that fails part-way leaves the server's records as they were.
    pub fn open(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        path: SpritePath,
        mode: OpenMode,
    ) -> FsResult<(StreamId, SimTime)> {
        let (_, server, t0) = self.route_charged(net, now, host, &path)?;
        let cached_name =
            self.config.client_name_caching && self.name_caches[host.index()].contains_key(&path);
        let lookup = if cached_name {
            self.stats.name_cache_hits += 1;
            SimDuration::ZERO
        } else {
            self.stats.lookups += 1;
            net.cost().name_lookup_component * path.depth()
        };
        let mut t = self.charge_typed(net, RpcOp::FsOpen, t0, host, server, lookup)?;
        let srv = self.srv_mut(server);
        let Some(id) = srv.lookup(&path) else {
            self.name_caches[host.index()].remove(&path);
            return Err(FsError::NotFound(path));
        };
        let kind = srv.file(id).expect("looked-up file").kind;
        let actions = srv.grant_open(id, host, mode);
        if mode.writes() {
            // The commit bumps the version: peer read replicas will be
            // stale and must be dropped before the open completes.
            t = self.invalidate_replicas(net, t, id)?;
        }
        for flush_host in &actions.flush_from {
            t = self.recall_dirty(net, t, *flush_host, id)?;
        }
        if !actions.invalidate_on.is_empty() {
            self.stats.cache_disables += 1;
            for inv_host in &actions.invalidate_on {
                // Notify the host (server-initiated) then drop its blocks.
                if *inv_host != server {
                    t = net
                        .send(RpcOp::FsConsistency, t, server, *inv_host, None)?
                        .done;
                }
                t = self.invalidate_on_host(net, t, *inv_host, id)?;
            }
        }
        let replaced = self.srv_mut(server).commit_open(id, host, mode);
        // Bring the opener's cache in line with a write open's version
        // bump: the copies stamped with the version it replaced are still
        // current and are re-stamped. Older copies are stale (another host
        // wrote since) and stay as they are — block lookups are
        // version-keyed, so they simply miss and refetch [NWO88]. A read
        // open bumps nothing and re-stamps nothing. (An eager drop here
        // would throw away every cached block of a file whose *last*
        // writer was another host, even when the opener's copies were
        // fetched after that write and are perfectly current.)
        if mode.writes()
            && actions.cacheable
            && !actions.invalidate_on.contains(&host)
            && actions.opener_cache_current
        {
            let (_, version, _) = self.file_state(server, id);
            self.clients[host.index()].revalidate_file(id, replaced, version);
        }
        if self.config.client_name_caching {
            self.name_caches[host.index()].insert(path, id);
        }
        let stream = self.streams.open(id, server, kind, mode, host);
        self.stats.opens += 1;
        Ok((stream, t))
    }

    /// Duplicates a stream reference on the same host (`fork`, `dup`). The
    /// duplicate shares the access position, as UNIX semantics demand.
    pub fn dup(&mut self, stream: StreamId, host: HostId) -> FsResult<()> {
        let s = self.streams.get(stream).ok_or(FsError::BadStream(stream))?;
        if s.refs_on(host) == 0 {
            return Err(FsError::BadStream(stream));
        }
        self.streams.add_ref(stream, host);
        Ok(())
    }

    /// Repositions a stream (lseek). Purely local.
    pub fn seek(&mut self, stream: StreamId, offset: u64) -> FsResult<()> {
        self.streams
            .get_mut(stream)
            .ok_or(FsError::BadStream(stream))?
            .set_offset(offset);
        Ok(())
    }

    /// Reads up to `len` bytes from `stream` at its access position into
    /// `buf`, which is cleared first. Cached blocks are copied from their
    /// frames straight into `buf`.
    pub fn read(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        stream: StreamId,
        len: u64,
        buf: &mut Vec<u8>,
    ) -> FsResult<SimTime> {
        buf.clear();
        let (file, server, shadowed, offset) = self.data_stream(stream, host, OpenMode::reads)?;
        let mut t = self.start_transfer(net, now, host, server, shadowed)?;
        let (cacheable, version, logical) = self.file_state(server, file);
        let end = offset.saturating_add(len).min(logical);
        buf.reserve(end.saturating_sub(offset) as usize);
        let mut pos = offset;
        while pos < end {
            let block = pos / PAGE_SIZE;
            let block_start = block * PAGE_SIZE;
            let take_from = (pos - block_start) as usize;
            let take_to = ((end - block_start).min(PAGE_SIZE)) as usize;
            if cacheable {
                let addr = BlockAddr { file, block };
                let frame = match self.clients[host.index()].lookup(addr, version) {
                    Some(frame) => frame,
                    None => {
                        t = self.fetch_block(net, t, host, server, file, block, version)?;
                        self.clients[host.index()]
                            .lookup(addr, version)
                            .expect("block just inserted")
                    }
                };
                let have = frame.len().min(take_to);
                if take_from < have {
                    buf.extend_from_slice(&frame[take_from..have]);
                }
            } else {
                self.stats.uncached_ops += 1;
                let op = RpcOp::FsBlockRead;
                t = self.block_from_server(net, op, t, host, server, file, block, 1)?;
                if let Some(f) = self.srv(server).file(file) {
                    f.read_into(pos, (take_to - take_from) as u64, buf);
                }
            }
            // Zero-fill sparse holes within logical size.
            pos = block_start + take_to as u64;
            buf.resize((pos - offset) as usize, 0);
        }
        let n = buf.len() as u64;
        if let Some(s) = self.streams.get_mut(stream) {
            s.advance(n);
        }
        self.stats.bytes_read += n;
        Ok(t)
    }

    /// Writes `bytes` at the stream's access position.
    pub fn write(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        stream: StreamId,
        bytes: &[u8],
    ) -> FsResult<SimTime> {
        let (file, server, shadowed, offset) = self.data_stream(stream, host, OpenMode::writes)?;
        let mut t = self.start_transfer(net, now, host, server, shadowed)?;
        let (cacheable, version, _) = self.file_state(server, file);
        let end = offset + bytes.len() as u64;
        let mut pos = offset;
        while pos < end {
            let block = pos / PAGE_SIZE;
            let block_start = block * PAGE_SIZE;
            let within = (pos - block_start) as usize;
            let upto = ((end - block_start).min(PAGE_SIZE)) as usize;
            let chunk = &bytes[(pos - offset) as usize..(pos - offset) as usize + (upto - within)];
            if cacheable {
                let addr = BlockAddr { file, block };
                // Read-modify-write for partial blocks, on the cached frame
                // or else the server's; either is copied only if the write
                // keeps some of its bytes.
                let mut current = self.clients[host.index()]
                    .lookup(addr, version)
                    .or_else(|| self.server_block_frame(server, file, block));
                write_frame(&mut current, within, chunk);
                let current = current.expect("a write leaves a frame");
                t = self.make_room(net, t, host, addr)?;
                let evicted = self.clients[host.index()].insert_dirty(addr, version, current);
                debug_assert!(evicted.is_none(), "make_room wrote the victim back");
                // Metadata-only size update rides along with the next RPC in
                // the real system; the logical size must grow now so reads
                // see the right end of file.
                self.note_size(server, file, block_start + upto as u64);
            } else {
                self.stats.uncached_ops += 1;
                let (op, len) = (RpcOp::FsBlockWrite, chunk.len() as u64);
                t = self.block_to_server(net, op, t, host, server, file, block, 1, len)?;
                if let Some(f) = self.srv_mut(server).file_mut(file) {
                    f.write_at(block_start + within as u64, chunk);
                }
            }
            pos = block_start + upto as u64;
        }
        let n = bytes.len() as u64;
        if let Some(s) = self.streams.get_mut(stream) {
            s.advance(n);
        }
        self.stats.bytes_written += n;
        Ok(t)
    }

    /// Forces a host's dirty blocks for the stream's file to the server.
    pub fn fsync(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        stream: StreamId,
    ) -> FsResult<SimTime> {
        let (file, _, _, _, _, _) = self.stream_info(stream, host)?;
        self.flush_file(net, now, host, file)
    }

    /// Closes one reference to `stream` held by `host`. When that was the
    /// host's last reference to the file, the host flushes its dirty
    /// blocks of the file and then tells the server it closed. (Sprite
    /// used 30-second delayed writes; flushing when the last reference
    /// goes is the same traffic, scheduled deterministically.)
    pub fn close(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        stream: StreamId,
    ) -> FsResult<SimTime> {
        let (file, server, mode, _, _, _) = self.stream_info(stream, host)?;
        let mut t = now + net.cost().local_kernel_call;
        let dropped_file_ref = match self.streams.release(stream, host) {
            ReleaseOutcome::UnknownStream | ReleaseOutcome::NotAHolder => {
                return Err(FsError::BadStream(stream))
            }
            ReleaseOutcome::StreamClosed => true,
            ReleaseOutcome::StillOpen {
                host_dropped_file_ref,
                ..
            } => host_dropped_file_ref,
        };
        if dropped_file_ref {
            t = self.flush_file(net, t, host, file)?;
            t = self.charge_typed(net, RpcOp::FsClose, t, host, server, SimDuration::ZERO)?;
            self.srv_mut(server).close(file, host, mode);
        }
        self.stats.closes += 1;
        Ok(t)
    }

    // ----- migration support -------------------------------------------------

    /// Moves `nrefs` references of `stream` from `from` to `to` as part of
    /// process migration (Ch. 5.3): flushes `from`'s dirty blocks for the
    /// file, atomically updates the I/O server's open records, and reports
    /// whether the stream is now shadowed.
    pub fn migrate_stream(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        stream: StreamId,
        from: HostId,
        to: HostId,
        nrefs: u32,
    ) -> FsResult<(MoveOutcome, SimTime)> {
        let (file, server, mode, _, _, _) = self.stream_info(stream, from)?;
        // 1. Flush the source's dirty blocks so the target (and server) see
        //    current data.
        let mut t = self.flush_file(net, now, from, file)?;
        // 2. The arriving host may hold stale cached blocks for this file
        //    from an earlier visit; migration acts like an open for
        //    consistency purposes, so those copies are dropped (dirty ones
        //    written back first) and reads on the target refetch current
        //    data from the server.
        t = self.invalidate_on_host(net, t, to, file)?;
        // 3. One RPC to the I/O server to move the open records; the server
        //    is the single synchronization point, which is what made
        //    Sprite's stream migration safe in the presence of sharing.
        let block_op = net.cost().cache_block_op;
        t = self.charge_typed(net, RpcOp::StreamTransfer, t, from, server, block_op)?;
        let outcome = self
            .streams
            .move_refs(stream, from, to, nrefs)
            .ok_or(FsError::BadStream(stream))?;
        let srv = self.srv_mut(server);
        let from_record = outcome.from_dropped_file_ref.then_some(from);
        if !srv.move_open(file, from_record, to, mode) {
            // Unlinked while open: the server keeps no records to move.
            return Ok((outcome, t));
        }
        // 4. Concurrent write-sharing created by the move disables caching.
        let (cacheable, holders) = {
            let f = srv.file(file).expect("moved file");
            (f.cacheable, f.open_hosts().collect::<Vec<_>>())
        };
        if mode.writes() {
            // A migrating write stream is a write-open for consistency
            // purposes; peer replicas version-miss and must be dropped.
            t = self.invalidate_replicas(net, t, file)?;
        }
        if !cacheable {
            self.stats.cache_disables += 1;
            for h in holders {
                t = self.invalidate_on_host(net, t, h, file)?;
            }
        }
        Ok((outcome, t))
    }

    // ----- checkpoint images ---------------------------------------------------

    /// Writes `frames` as the next run of whole blocks of a checkpoint
    /// image, from the first block boundary at or after the stream's
    /// access position, and moves the stream to the boundary after the
    /// run. One [`RpcOp::CkptWrite`] carries the run, sized by its frames,
    /// and the server stores the frames themselves once it succeeds, so no
    /// bytes are copied and a failed run stores nothing. Checkpoint
    /// streams are sequential bulk the client never re-reads, so they
    /// bypass the client cache; the op is typed so the per-op RPC tables
    /// break checkpoint traffic out from regular file writes.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty or holds more than
    /// [`CostModel::run_blocks`](sprite_net::CostModel::run_blocks)
    /// blocks, or if a frame is longer than one block.
    pub fn ckpt_write_blocks(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        stream: StreamId,
        frames: &[Frame],
    ) -> FsResult<SimTime> {
        let (file, server, shadowed, offset) = self.data_stream(stream, host, OpenMode::writes)?;
        let blocks = frames.len() as u64;
        let run = net.cost().run_blocks();
        assert!((1..=run).contains(&blocks), "a run holds 1 to {run} blocks");
        assert!(
            frames.iter().all(|f| f.len() as u64 <= PAGE_SIZE),
            "a checkpoint block holds at most a page"
        );
        let len = frames.iter().map(|f| f.len() as u64).sum();
        let first = offset.div_ceil(PAGE_SIZE);
        let t = self.start_transfer(net, now, host, server, shadowed)?;
        let op = RpcOp::CkptWrite;
        let t = self.block_to_server(net, op, t, host, server, file, first, blocks, len)?;
        if let Some(f) = self.srv_mut(server).file_mut(file) {
            for (block, frame) in (first..).zip(frames) {
                f.put_frame(block, Frame::clone(frame));
            }
        }
        self.end_ckpt_block(stream, first + blocks - 1);
        self.stats.bytes_written += len;
        Ok(t)
    }

    /// Reads the next run of up to `max` whole blocks of a checkpoint
    /// image during restart-elsewhere, from the first block boundary at or
    /// after the stream's access position, and moves the stream to the
    /// boundary after the run. One [`RpcOp::CkptRestore`] carries the run,
    /// and the reply is the server's stored frames, shared rather than
    /// copied; a short last block comes back as short as it was written.
    /// Near the end of the file the run is shorter, and at or past the end
    /// it is empty, with no RPC: an image that ends early (a checkpoint
    /// died mid-write) must be discarded.
    ///
    /// # Panics
    ///
    /// Panics if `max` is 0 or more than
    /// [`CostModel::run_blocks`](sprite_net::CostModel::run_blocks).
    pub fn ckpt_read_blocks(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        stream: StreamId,
        max: u64,
    ) -> FsResult<(Vec<Frame>, SimTime)> {
        let run = net.cost().run_blocks();
        assert!((1..=run).contains(&max), "a run holds 1 to {run} blocks");
        let (file, server, shadowed, offset) = self.data_stream(stream, host, OpenMode::reads)?;
        let t = self.start_transfer(net, now, host, server, shadowed)?;
        let first = offset.div_ceil(PAGE_SIZE);
        let (_, _, logical) = self.file_state(server, file);
        let blocks = logical.div_ceil(PAGE_SIZE).saturating_sub(first).min(max);
        if blocks == 0 {
            return Ok((Vec::new(), t));
        }
        let op = RpcOp::CkptRestore;
        let t = self.block_from_server(net, op, t, host, server, file, first, blocks)?;
        let frames: Vec<Frame> = (first..first + blocks)
            .map(|block| {
                self.server_block_frame(server, file, block)
                    .unwrap_or_else(|| Frame::from([]))
            })
            .collect();
        self.end_ckpt_block(stream, first + blocks - 1);
        self.stats.bytes_read += frames.iter().map(|f| f.len() as u64).sum::<u64>();
        Ok((frames, t))
    }

    /// Moves a checkpoint stream to the block boundary after `block`.
    fn end_ckpt_block(&mut self, stream: StreamId, block: u64) {
        if let Some(s) = self.streams.get_mut(stream) {
            s.set_offset((block + 1) * PAGE_SIZE);
        }
    }

    // ----- paging (backing files) ---------------------------------------------

    /// Writes a run of pages to a backing file, `frames[i]` as page
    /// `first + i` (dirty-page flush during normal paging or migration),
    /// as one [`RpcOp::VmPageFlush`]. Bypasses the client cache. The file
    /// keeps a reference to each frame, once the RPC succeeds; no bytes
    /// are copied.
    ///
    /// # Panics
    ///
    /// Panics unless the run is 1 to
    /// [`CostModel::run_blocks`](sprite_net::CostModel::run_blocks) pages
    /// inside one stripe unit: the pages from a multiple of that count up
    /// to the next.
    pub fn page_out(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        file: FileId,
        first: u64,
        frames: &[Frame],
    ) -> FsResult<SimTime> {
        let run = net.cost().run_blocks();
        let pages = frames.len() as u64;
        assert!(
            pages > 0 && first / run == (first + pages - 1) / run,
            "a page-out run lies inside one stripe unit"
        );
        let (home, io) = self.paging_route(file, first, run)?;
        let op = RpcOp::VmPageFlush;
        let len = frames.iter().map(|f| f.len() as u64).sum();
        let mut t = self.block_to_server(net, op, now, host, io, file, first, pages, len)?;
        // Paging writes bypass the open/close protocol, so any replica set
        // on the file (possible for a regular file that gets paged) is
        // dropped here rather than at a write-open.
        t = self.invalidate_replicas(net, t, file)?;
        let stored = self
            .srv_mut(home)
            .file_mut(file)
            .expect("backing file exists");
        for (page, frame) in (first..).zip(frames) {
            stored.put_frame(page, Frame::clone(frame));
        }
        self.stats.pageouts += pages;
        Ok(t)
    }

    /// Reads one page from a backing file (demand page-in). Returns the
    /// file's stored frame, shared; only a page past the end of the file,
    /// in a gap or in a short tail is built as a zero-filled copy.
    pub fn page_in(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        file: FileId,
        page: u64,
    ) -> FsResult<(Frame, SimTime)> {
        let (home, io) = self.paging_route(file, page, net.cost().run_blocks())?;
        let op = RpcOp::VmPageFetch;
        let t = self.block_from_server(net, op, now, host, io, file, page, 1)?;
        let frame = self
            .srv(home)
            .file(file)
            .expect("backing file exists")
            .frame(page);
        self.stats.pageins += 1;
        Ok((frame, t))
    }

    /// Where `page` of a backing (or regular) file lives and is served:
    /// `(home, io)`. The home server keeps the authoritative byte image.
    /// In a striped domain, stripe units of `run` pages (the most one
    /// page-out carries) round-robin across the group by `(file, unit)`
    /// for service, so one large swap file saturates N spindles instead
    /// of one and a run never spans two servers; elsewhere `io` is the
    /// home.
    fn paging_route(&self, file: FileId, page: u64, run: u64) -> FsResult<(HostId, HostId)> {
        let (home, gi) = self.placed(file).ok_or(FsError::WrongKind(file))?;
        let kind = self.srv(home).file(file).map(|f| f.kind);
        if !matches!(kind, Some(FileKind::Backing | FileKind::Regular)) {
            return Err(FsError::WrongKind(file));
        }
        let io = match self.shards.group(gi as usize) {
            Some(g) if g.servers.len() > 1 => {
                let n = g.servers.len() as u64;
                g.servers[(file.raw().wrapping_add(page / run) % n) as usize]
            }
            _ => home,
        };
        Ok((home, io))
    }

    // ----- pseudo-devices -------------------------------------------------------

    /// Performs one request/response round trip with the user-level server
    /// behind a pseudo-device stream \[WO88\]. `service` is the server
    /// process's think time.
    #[expect(clippy::too_many_arguments)]
    pub fn pseudo_request(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        stream: StreamId,
        req_bytes: u64,
        reply_bytes: u64,
        service: SimDuration,
    ) -> FsResult<SimTime> {
        let (file, _, _, kind, _, _) = self.stream_info(stream, host)?;
        let FileKind::Pseudo {
            server_process_host,
        } = kind
        else {
            return Err(FsError::WrongKind(file));
        };
        self.stats.pseudo_requests += 1;
        let cost = net.cost();
        if server_process_host == host {
            // Local rendezvous: two kernel crossings and two context
            // switches into and out of the server process.
            Ok(now + cost.local_kernel_call * 2 + cost.context_switch * 2 + service)
        } else {
            let switch = cost.context_switch * 2;
            let done = net
                .send_sized(
                    RpcOp::FsPseudo,
                    now,
                    host,
                    server_process_host,
                    req_bytes,
                    reply_bytes,
                    service + switch,
                    None,
                )?
                .done;
            Ok(done)
        }
    }

    // ----- small internal accessors ----------------------------------------

    fn stream_info(
        &self,
        stream: StreamId,
        host: HostId,
    ) -> FsResult<(FileId, HostId, OpenMode, FileKind, bool, u64)> {
        let s = self.streams.get(stream).ok_or(FsError::BadStream(stream))?;
        if s.refs_on(host) == 0 {
            return Err(FsError::BadStream(stream));
        }
        Ok((
            s.file,
            s.server,
            s.mode,
            s.kind,
            s.is_shadowed(),
            s.offset(),
        ))
    }

    /// The stream gate of every data transfer: `host` must hold `stream`,
    /// its mode must `allow` the transfer (`OpenMode::reads` or
    /// `OpenMode::writes`), and it must not be a pseudo-device. Returns the
    /// stream's `(file, I/O server, shadowed, offset)`.
    fn data_stream(
        &self,
        stream: StreamId,
        host: HostId,
        allows: fn(OpenMode) -> bool,
    ) -> FsResult<(FileId, HostId, bool, u64)> {
        let (file, server, mode, kind, shadowed, offset) = self.stream_info(stream, host)?;
        if !allows(mode) {
            return Err(FsError::BadMode(stream));
        }
        if matches!(kind, FileKind::Pseudo { .. }) {
            return Err(FsError::WrongKind(file));
        }
        Ok((file, server, shadowed, offset))
    }

    /// The kernel call that starts a data transfer, plus, for a shadowed
    /// stream, the round trip to the I/O server where its access position
    /// lives.
    fn start_transfer(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        server: HostId,
        shadowed: bool,
    ) -> FsResult<SimTime> {
        let t = now + net.cost().local_kernel_call;
        if !shadowed {
            return Ok(t);
        }
        let op = RpcOp::FsShadowStream;
        let t = self.charge_typed(net, op, t, host, server, SimDuration::ZERO)?;
        self.stats.shadow_ops += 1;
        Ok(t)
    }

    /// A server file's `(cacheable, version, logical size)` from one
    /// lookup; `(false, 0, 0)` for a file the server no longer stores.
    fn file_state(&self, server: HostId, file: FileId) -> (bool, u64, u64) {
        self.srv(server).file(file).map_or((false, 0, 0), |f| {
            (f.cacheable, f.version, f.logical_size())
        })
    }

    fn server_block_frame(&self, server: HostId, file: FileId, block: u64) -> Option<Frame> {
        self.srv(server).file(file)?.read_block_frame(block)
    }

    fn note_size(&mut self, server: HostId, file: FileId, end: u64) {
        if let Some(f) = self.servers[server.index()]
            .as_mut()
            .and_then(|s| s.file_mut(file))
        {
            f.note_logical_size(end);
        }
    }

    #[expect(clippy::too_many_arguments)]
    fn fetch_block(
        &mut self,
        net: &mut Transport,
        now: SimTime,
        host: HostId,
        server: HostId,
        file: FileId,
        block: u64,
        version: u64,
    ) -> FsResult<SimTime> {
        // A hot file with a live replica set is served by a group peer
        // chosen from the reading host's identity, spreading the read load
        // across the striped domain. Replica sets only exist between an
        // install and the next write-open (which drops them), so a peer
        // serve is current by construction; bytes still come from the home
        // server's authoritative copy.
        let serve_from = match self.replicas.set(file) {
            Some(set) if host != server => set.servers[host.index() % set.servers.len()],
            _ => server,
        };
        let mut t = if serve_from != server {
            self.stats.replica_hits += 1;
            let op = RpcOp::FsReplicaRead;
            self.block_from_server(net, op, now, host, serve_from, file, block, 1)?
        } else {
            let op = RpcOp::FsBlockRead;
            let mut t = self.block_from_server(net, op, now, host, server, file, block, 1)?;
            if host != server {
                let peers = self.group_peers(file, server);
                if !peers.is_empty() && self.replicas.note_fetch(file, host) {
                    t = self.try_install_replicas(net, t, file, server, peers);
                }
            }
            t
        };
        // The server's frame is cached by reference when it holds exactly
        // the block's bytes. Empty and short tail blocks are cached as they
        // are; the cache digest folds their length.
        let data = self
            .server_block_frame(server, file, block)
            .unwrap_or_else(|| Frame::from([]));
        let addr = BlockAddr { file, block };
        t = self.make_room(net, t, host, addr)?;
        let evicted = self.clients[host.index()].insert_clean(addr, version, data);
        debug_assert!(evicted.is_none(), "make_room wrote the victim back");
        self.stats.block_fetches += 1;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_net::{CostModel, Ideal, LinkPolicy, LinkVerdict};

    fn setup(hosts: usize) -> (Transport, SpriteFs) {
        let net = Transport::new(CostModel::sun3(), hosts);
        let mut fs = SpriteFs::new(FsConfig::default(), hosts);
        fs.add_server(HostId::new(0), SpritePath::new("/"));
        (net, fs)
    }

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    /// The file server serves requests in the order they arrive: an open
    /// issued while another host's open is booked ten seconds ahead is not
    /// queued behind it. It completes in its lookup and one `fs-open`
    /// round trip, exactly as on a server with nothing booked, and no
    /// request waits for the server's CPU.
    #[test]
    fn an_open_is_not_queued_behind_a_later_booked_open() {
        let open_done = |book_later_open: bool| {
            let (mut net, mut fs) = setup(4);
            let path = SpritePath::new("/f");
            let (_, ready) = fs
                .create(&mut net, SimTime::ZERO, h(1), path.clone())
                .unwrap();
            let later = ready + SimDuration::from_secs(10);
            if book_later_open {
                fs.open(&mut net, later, h(3), path.clone(), OpenMode::Read)
                    .unwrap();
            }
            let (_, done) = fs
                .open(&mut net, ready, h(2), path, OpenMode::Read)
                .unwrap();
            assert!(done < later);
            assert_eq!(fs.server(h(0)).unwrap().queue_wait(), SimDuration::ZERO);
            let calls = |op| net.rpc_table().get(op).calls;
            (done, calls(RpcOp::FsLookup), calls(RpcOp::FsOpen))
        };
        let (alone, lookups, opens) = open_done(false);
        assert_eq!((lookups, opens), (1, 1), "the early open's lookup and open");
        assert_eq!(open_done(true).0, alone);
    }

    #[test]
    fn create_open_write_read_round_trip() {
        let (mut net, mut fs) = setup(3);
        let t0 = SimTime::ZERO;
        let (_, t1) = fs
            .create(&mut net, t0, h(1), SpritePath::new("/a"))
            .unwrap();
        let (s, t2) = fs
            .open(
                &mut net,
                t1,
                h(1),
                SpritePath::new("/a"),
                OpenMode::ReadWrite,
            )
            .unwrap();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let t3 = fs.write(&mut net, t2, h(1), s, &payload).unwrap();
        fs.seek(s, 0).unwrap();
        let mut back = Vec::new();
        let t4 = fs
            .read(&mut net, t3, h(1), s, payload.len() as u64, &mut back)
            .unwrap();
        assert_eq!(back, payload);
        assert!(t4 > t0);
        fs.close(&mut net, t4, h(1), s).unwrap();
        // After close-with-flush the server holds the authoritative bytes.
        let file = fs.server(h(0)).unwrap();
        let id = fs.streams();
        assert!(id.is_empty());
        let stored = file
            .file(FileId::new(1))
            .unwrap()
            .read_at(0, payload.len() as u64);
        assert_eq!(stored, payload);
    }

    #[test]
    fn second_host_sees_writers_data_via_recall() {
        let (mut net, mut fs) = setup(3);
        let t0 = SimTime::ZERO;
        let (id, t1) = fs
            .create(&mut net, t0, h(1), SpritePath::new("/f"))
            .unwrap();
        let (s1, t2) = fs
            .open(&mut net, t1, h(1), SpritePath::new("/f"), OpenMode::Write)
            .unwrap();
        let t3 = fs
            .write(&mut net, t2, h(1), s1, b"written by host1")
            .unwrap();
        let t4 = fs.close(&mut net, t3, h(1), s1).unwrap();
        // Leave a dirty footprint: re-open and write without closing.
        let (s2, t5) = fs
            .open(&mut net, t4, h(1), SpritePath::new("/f"), OpenMode::Write)
            .unwrap();
        let t6 = fs.write(&mut net, t5, h(1), s2, b"WRITTEN").unwrap();
        assert!(fs.clients[h(1).index()].dirty_block_count(id) > 0);
        let t7 = fs.close(&mut net, t6, h(1), s2).unwrap();
        // Host 2 opens for read; any remaining dirty data must be recalled.
        let (s3, t8) = fs
            .open(&mut net, t7, h(2), SpritePath::new("/f"), OpenMode::Read)
            .unwrap();
        let mut data = Vec::new();
        fs.read(&mut net, t8, h(2), s3, 16, &mut data).unwrap();
        assert_eq!(&data, b"WRITTEN by host1");
        assert_eq!(fs.clients[h(1).index()].dirty_block_count(id), 0);
    }

    #[test]
    fn recall_happens_when_writer_still_has_file_open() {
        let (mut net, mut fs) = setup(3);
        let t0 = SimTime::ZERO;
        fs.create(&mut net, t0, h(1), SpritePath::new("/f"))
            .unwrap();
        let (s1, t1) = fs
            .open(&mut net, t0, h(1), SpritePath::new("/f"), OpenMode::Write)
            .unwrap();
        let t2 = fs.write(&mut net, t1, h(1), s1, b"dirty").unwrap();
        // Writer has NOT closed. A reader on another host forces concurrent
        // sharing: caching disabled, dirty data flushed.
        let (s2, t3) = fs
            .open(&mut net, t2, h(2), SpritePath::new("/f"), OpenMode::Read)
            .unwrap();
        assert!(fs.stats().cache_disables >= 1);
        let mut data = Vec::new();
        fs.read(&mut net, t3, h(2), s2, 5, &mut data).unwrap();
        assert_eq!(&data, b"dirty");
        // Writer's further writes go through to the server immediately.
        let t4 = fs.write(&mut net, t3, h(1), s1, b" more").unwrap();
        assert!(fs.stats().uncached_ops > 0);
        fs.seek(s2, 0).unwrap();
        let mut data2 = Vec::new();
        fs.read(&mut net, t4, h(2), s2, 10, &mut data2).unwrap();
        assert_eq!(&data2, b"dirty more");
    }

    #[test]
    fn shadowed_stream_pays_server_round_trip() {
        let (mut net, mut fs) = setup(3);
        let t0 = SimTime::ZERO;
        fs.create(&mut net, t0, h(1), SpritePath::new("/f"))
            .unwrap();
        let (s, t1) = fs
            .open(
                &mut net,
                t0,
                h(1),
                SpritePath::new("/f"),
                OpenMode::ReadWrite,
            )
            .unwrap();
        fs.dup(s, h(1)).unwrap(); // forked child shares the stream
        let t2 = fs.write(&mut net, t1, h(1), s, b"0123456789").unwrap();
        // One ref migrates to host 2: stream becomes shadowed.
        let (outcome, t3) = fs.migrate_stream(&mut net, t2, s, h(1), h(2), 1).unwrap();
        assert!(outcome.shadowed);
        let before = fs.stats().shadow_ops;
        fs.seek(s, 0).unwrap();
        let mut data = Vec::new();
        fs.read(&mut net, t3, h(2), s, 4, &mut data).unwrap();
        assert_eq!(&data, b"0123");
        assert_eq!(fs.stats().shadow_ops, before + 1);
        // The shared access position is visible from the home host too.
        let mut data2 = Vec::new();
        fs.read(&mut net, t3, h(1), s, 3, &mut data2).unwrap();
        assert_eq!(&data2, b"456");
    }

    #[test]
    fn migrating_sole_reference_does_not_shadow() {
        let (mut net, mut fs) = setup(3);
        let t0 = SimTime::ZERO;
        fs.create(&mut net, t0, h(1), SpritePath::new("/f"))
            .unwrap();
        let (s, t1) = fs
            .open(&mut net, t0, h(1), SpritePath::new("/f"), OpenMode::Write)
            .unwrap();
        let t2 = fs.write(&mut net, t1, h(1), s, b"data").unwrap();
        let (outcome, t3) = fs.migrate_stream(&mut net, t2, s, h(1), h(2), 1).unwrap();
        assert!(!outcome.shadowed);
        // Writes continue transparently from the new host.
        let t4 = fs.write(&mut net, t3, h(2), s, b"more").unwrap();
        assert!(t4 > t3);
        assert_eq!(fs.streams().get(s).unwrap().offset(), 8);
    }

    #[test]
    fn migrate_stream_flushes_source_dirty_blocks() {
        let (mut net, mut fs) = setup(3);
        let t0 = SimTime::ZERO;
        let (id, _) = fs
            .create(&mut net, t0, h(1), SpritePath::new("/f"))
            .unwrap();
        let (s, t1) = fs
            .open(&mut net, t0, h(1), SpritePath::new("/f"), OpenMode::Write)
            .unwrap();
        let t2 = fs.write(&mut net, t1, h(1), s, &[7u8; 20_000]).unwrap();
        assert!(fs.clients[h(1).index()].dirty_block_count(id) > 0);
        let (_, _t3) = fs.migrate_stream(&mut net, t2, s, h(1), h(2), 1).unwrap();
        assert_eq!(fs.clients[h(1).index()].dirty_block_count(id), 0);
        let server_data = fs
            .server(h(0))
            .unwrap()
            .file(id)
            .unwrap()
            .read_at(0, 20_000);
        assert_eq!(server_data, vec![7u8; 20_000]);
    }

    #[test]
    fn paging_round_trip() {
        let (mut net, mut fs) = setup(2);
        let t0 = SimTime::ZERO;
        let (swap, t1) = fs
            .create_backing(&mut net, t0, h(1), SpritePath::new("/swap/p1"))
            .unwrap();
        let page = Frame::from(vec![0xabu8; PAGE_SIZE as usize]);
        let t2 = fs
            .page_out(&mut net, t1, h(1), swap, 3, std::slice::from_ref(&page))
            .unwrap();
        let (back, t3) = fs.page_in(&mut net, t2, h(1), swap, 3).unwrap();
        assert!(
            Frame::ptr_eq(&back, &page),
            "paging moves the frame, not bytes"
        );
        assert!(t3 > t2);
        let (zeros, _) = fs.page_in(&mut net, t3, h(1), swap, 0).unwrap();
        assert_eq!(*zeros, [0u8; PAGE_SIZE as usize]);
        assert_eq!(fs.stats().pageouts, 1);
        assert_eq!(fs.stats().pageins, 2);
    }

    #[test]
    fn a_page_out_run_is_one_round_trip_of_its_bytes() {
        let (mut net, mut fs) = setup(2);
        let (swap, t0) = fs
            .create_backing(&mut net, SimTime::ZERO, h(1), SpritePath::new("/swap/run"))
            .unwrap();
        let cost = net.cost().clone();
        // Client processing, the request on the wire, its latency, the
        // server's processing and one cache operation per block, the
        // reply on the wire, its latency.
        let round_trip = |blocks: u64| {
            cost.rpc_processing * 2
                + cost.message_latency * 2
                + cost.wire_time(blocks * PAGE_SIZE + CONTROL_BYTES)
                + cost.wire_time(CONTROL_BYTES)
                + cost.cache_block_op * blocks
        };
        let page = Frame::from(vec![0x3cu8; PAGE_SIZE as usize]);
        let one = fs
            .page_out(&mut net, t0, h(1), swap, 8, std::slice::from_ref(&page))
            .unwrap()
            .elapsed_since(t0);
        assert_eq!(one, round_trip(1));
        assert_eq!(
            one,
            SimDuration::from_micros(11_650),
            "one block, as before runs"
        );
        let t1 = t0 + SimDuration::from_secs(1);
        let run = vec![page; 4];
        let four = fs
            .page_out(&mut net, t1, h(1), swap, 0, &run)
            .unwrap()
            .elapsed_since(t1);
        assert_eq!(four, round_trip(4));
        assert_eq!(four, SimDuration::from_micros(38_000), "9.50 ms a block");
        assert_eq!(net.rpc_table().get(RpcOp::VmPageFlush).calls, 2);
        assert_eq!(fs.stats().pageouts, 5);
        for p in (0..4).chain([8]) {
            let stored = fs.srv(h(0)).file(swap).unwrap().frame(p);
            assert!(Frame::ptr_eq(&stored, &run[0]), "page {p}");
        }
    }

    #[test]
    #[should_panic(expected = "inside one stripe unit")]
    fn a_page_out_run_never_crosses_a_stripe_unit() {
        let (mut net, mut fs) = setup(2);
        let (swap, t) = fs
            .create_backing(&mut net, SimTime::ZERO, h(1), SpritePath::new("/swap/x"))
            .unwrap();
        let page = Frame::from(vec![1u8; PAGE_SIZE as usize]);
        let _ = fs.page_out(&mut net, t, h(1), swap, 3, &[page.clone(), page]);
    }

    /// Partitions every `fs-consistency` notice, so no recall or cache
    /// invalidation reaches its host.
    #[derive(Debug)]
    struct NoticesPartitioned;

    impl LinkPolicy for NoticesPartitioned {
        fn verdict(&mut self, op: RpcOp, _: SimTime, _: HostId, _: Option<HostId>) -> LinkVerdict {
            if op == RpcOp::FsConsistency {
                LinkVerdict::Partitioned
            } else {
                LinkVerdict::Deliver
            }
        }
    }

    #[test]
    fn a_failed_open_commits_nothing_at_the_server() {
        let (mut net, mut fs) = setup(4);
        let path = SpritePath::new("/f");
        let (id, t) = fs
            .create(&mut net, SimTime::ZERO, h(1), path.clone())
            .unwrap();
        let (w, mut t) = fs
            .open(&mut net, t, h(1), path.clone(), OpenMode::ReadWrite)
            .unwrap();
        let mut expect = Vec::new();
        for byte in [b'a', b'b', b'c'] {
            let block = vec![byte; PAGE_SIZE as usize];
            t = fs.write(&mut net, t, h(1), w, &block).unwrap();
            expect.extend_from_slice(&block);
        }
        assert_eq!(fs.clients[h(1).index()].dirty_block_count(id), 3);
        let version = fs.srv(h(0)).file(id).unwrap().version;
        let check = |fs: &SpriteFs, what: &str| {
            let f = fs.srv(h(0)).file(id).unwrap();
            assert_eq!(f.opens.len(), 1, "{what}: only the writer's record");
            assert_eq!(f.open_hosts().collect::<Vec<_>>(), [h(1)], "{what}");
            assert!(f.cacheable, "{what}: caching stays on for the writer");
            assert_eq!(f.version, version, "{what}");
            assert_eq!(f.last_writer, Some(h(1)), "{what}");
        };
        // The recall notice to host 1 is lost: a reader's open and a
        // writer's open on host 2 fail, and neither leaves a trace.
        net.set_policy(Box::new(NoticesPartitioned));
        for mode in [OpenMode::Read, OpenMode::Write] {
            let err = fs.open(&mut net, t, h(2), path.clone(), mode);
            assert!(matches!(err, Err(FsError::Rpc(_))), "{mode:?}");
            check(&fs, &format!("{mode:?} open"));
        }
        assert_eq!(fs.clients[h(1).index()].dirty_block_count(id), 3);
        // Once the link heals, an open on host 3 recalls host 1's blocks.
        net.set_policy(Box::new(Ideal));
        let (r, t) = fs.open(&mut net, t, h(3), path, OpenMode::Read).unwrap();
        assert_eq!(fs.clients[h(1).index()].dirty_block_count(id), 0);
        let mut got = Vec::new();
        fs.read(&mut net, t, h(3), r, u64::MAX, &mut got).unwrap();
        assert_eq!(got.len(), 12_288);
        assert!(got == expect, "the reader sees every written byte");
    }

    /// A host that wrote a file, lost it to another host's write and then
    /// opens it twice must not revive its old copy: the first write open
    /// makes it the last writer again, and the second open may re-stamp
    /// only copies of the version the first one replaced.
    #[test]
    fn a_reopen_by_the_last_writer_keeps_stale_copies_stale() {
        for second in [OpenMode::Read, OpenMode::ReadWrite] {
            let (mut net, mut fs) = setup(4);
            let path = SpritePath::new("/f");
            let (_, t) = fs
                .create(&mut net, SimTime::ZERO, h(3), path.clone())
                .unwrap();
            let (s, t) = fs
                .open(&mut net, t, h(3), path.clone(), OpenMode::Write)
                .unwrap();
            let t = fs.write(&mut net, t, h(3), s, &[3; 4_690]).unwrap();
            let t = fs.close(&mut net, t, h(3), s).unwrap();
            let (s, t) = fs
                .open(&mut net, t, h(1), path.clone(), OpenMode::Write)
                .unwrap();
            fs.seek(s, 4_690).unwrap();
            let t = fs.write(&mut net, t, h(1), s, &[202; 967]).unwrap();
            let t = fs.close(&mut net, t, h(1), s).unwrap();
            let (_, t) = fs
                .open(&mut net, t, h(3), path.clone(), OpenMode::Write)
                .unwrap();
            let (s, t) = fs.open(&mut net, t, h(3), path.clone(), second).unwrap();
            let mut got = Vec::new();
            fs.read(&mut net, t, h(3), s, u64::MAX, &mut got).unwrap();
            assert_eq!(got.len(), 5_657, "{second:?}");
            assert!(got[..4_690].iter().all(|&b| b == 3), "{second:?}");
            assert!(
                got[4_690..].iter().all(|&b| b == 202),
                "{second:?}: host 1's bytes"
            );
        }
    }

    #[test]
    fn pseudo_device_round_trips() {
        let (mut net, mut fs) = setup(3);
        let t0 = SimTime::ZERO;
        fs.create_pseudo_device(&mut net, t0, h(1), SpritePath::new("/dev/migd"), h(0))
            .unwrap();
        let (s, t1) = fs
            .open(
                &mut net,
                t0,
                h(1),
                SpritePath::new("/dev/migd"),
                OpenMode::ReadWrite,
            )
            .unwrap();
        let t2 = fs
            .pseudo_request(
                &mut net,
                t1,
                h(1),
                s,
                128,
                128,
                SimDuration::from_micros(200),
            )
            .unwrap();
        assert!(t2.elapsed_since(t1) >= net.cost().small_rpc_round_trip());
        // Reads and writes are meaningless on pseudo-devices.
        assert!(matches!(
            fs.read(&mut net, t2, h(1), s, 4, &mut Vec::new()),
            Err(FsError::WrongKind(_))
        ));
        assert_eq!(fs.stats().pseudo_requests, 1);
    }

    #[test]
    fn local_pseudo_request_is_cheaper() {
        let (mut net, mut fs) = setup(3);
        let t0 = SimTime::ZERO;
        fs.create_pseudo_device(&mut net, t0, h(1), SpritePath::new("/dev/d"), h(1))
            .unwrap();
        let (s, t1) = fs
            .open(
                &mut net,
                t0,
                h(1),
                SpritePath::new("/dev/d"),
                OpenMode::ReadWrite,
            )
            .unwrap();
        let local = fs
            .pseudo_request(&mut net, t1, h(1), s, 64, 64, SimDuration::ZERO)
            .unwrap()
            .elapsed_since(t1);
        assert!(local < net.cost().small_rpc_round_trip());
    }

    #[test]
    fn deeper_paths_cost_more_to_open() {
        let (mut net, mut fs) = setup(2);
        let t0 = SimTime::ZERO;
        fs.create(&mut net, t0, h(1), SpritePath::new("/a"))
            .unwrap();
        fs.create(&mut net, t0, h(1), SpritePath::new("/x/y/z/w/deep"))
            .unwrap();
        let shallow = {
            let (s, t) = fs
                .open(&mut net, t0, h(1), SpritePath::new("/a"), OpenMode::Read)
                .unwrap();
            fs.close(&mut net, t, h(1), s).unwrap();
            t.elapsed_since(t0)
        };
        let deep = {
            let (s, t) = fs
                .open(
                    &mut net,
                    t0,
                    h(1),
                    SpritePath::new("/x/y/z/w/deep"),
                    OpenMode::Read,
                )
                .unwrap();
            fs.close(&mut net, t, h(1), s).unwrap();
            t.elapsed_since(t0)
        };
        assert!(deep > shallow, "deep {deep} vs shallow {shallow}");
    }

    #[test]
    fn errors_are_reported() {
        let (mut net, mut fs) = setup(2);
        let t0 = SimTime::ZERO;
        assert!(matches!(
            fs.open(&mut net, t0, h(1), SpritePath::new("/nope"), OpenMode::Read),
            Err(FsError::NotFound(_))
        ));
        fs.create(&mut net, t0, h(1), SpritePath::new("/f"))
            .unwrap();
        assert!(matches!(
            fs.create(&mut net, t0, h(1), SpritePath::new("/f")),
            Err(FsError::AlreadyExists(_))
        ));
        let (s, t1) = fs
            .open(&mut net, t0, h(1), SpritePath::new("/f"), OpenMode::Read)
            .unwrap();
        assert!(matches!(
            fs.write(&mut net, t1, h(1), s, b"x"),
            Err(FsError::BadMode(_))
        ));
        // A host that holds no reference cannot use the stream.
        assert!(matches!(
            fs.read(&mut net, t1, h(0), s, 1, &mut Vec::new()),
            Err(FsError::BadStream(_))
        ));
        let fs2 = SpriteFs::new(FsConfig::default(), 2);
        assert!(matches!(
            fs2.resolve(&SpritePath::new("/anything")),
            Err(FsError::NoDomain(_))
        ));
    }

    #[test]
    fn unlink_removes_and_invalidates() {
        let (mut net, mut fs) = setup(2);
        let t0 = SimTime::ZERO;
        fs.create(&mut net, t0, h(1), SpritePath::new("/f"))
            .unwrap();
        let (s, t1) = fs
            .open(&mut net, t0, h(1), SpritePath::new("/f"), OpenMode::Write)
            .unwrap();
        let t2 = fs.write(&mut net, t1, h(1), s, b"bytes").unwrap();
        let t3 = fs.close(&mut net, t2, h(1), s).unwrap();
        fs.unlink(&mut net, t3, h(1), &SpritePath::new("/f"))
            .unwrap();
        assert!(matches!(
            fs.open(&mut net, t3, h(1), SpritePath::new("/f"), OpenMode::Read),
            Err(FsError::NotFound(_))
        ));
        assert!(matches!(
            fs.unlink(&mut net, t3, h(1), &SpritePath::new("/f")),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn cache_hits_avoid_server_traffic() {
        let (mut net, mut fs) = setup(2);
        let t0 = SimTime::ZERO;
        fs.create(&mut net, t0, h(1), SpritePath::new("/f"))
            .unwrap();
        let (s, t1) = fs
            .open(
                &mut net,
                t0,
                h(1),
                SpritePath::new("/f"),
                OpenMode::ReadWrite,
            )
            .unwrap();
        let t2 = fs.write(&mut net, t1, h(1), s, &[1u8; 8192]).unwrap();
        let fetches_before = fs.stats().block_fetches;
        fs.seek(s, 0).unwrap();
        let mut buf = Vec::new();
        let t3 = fs.read(&mut net, t2, h(1), s, 8192, &mut buf).unwrap();
        // All blocks are dirty in the local cache: no fetches.
        assert_eq!(fs.stats().block_fetches, fetches_before);
        fs.seek(s, 0).unwrap();
        fs.read(&mut net, t3, h(1), s, 8192, &mut buf).unwrap();
        assert_eq!(fs.stats().block_fetches, fetches_before);
        let (hits, _) = fs.clients[h(1).index()].hit_stats();
        assert!(hits >= 4);
    }

    #[test]
    fn fsync_pushes_dirty_blocks() {
        let (mut net, mut fs) = setup(2);
        let t0 = SimTime::ZERO;
        let (id, _) = fs
            .create(&mut net, t0, h(1), SpritePath::new("/f"))
            .unwrap();
        let (s, t1) = fs
            .open(&mut net, t0, h(1), SpritePath::new("/f"), OpenMode::Write)
            .unwrap();
        let t2 = fs.write(&mut net, t1, h(1), s, b"sync me").unwrap();
        assert_eq!(fs.clients[h(1).index()].dirty_block_count(id), 1);
        let t3 = fs.fsync(&mut net, t2, h(1), s).unwrap();
        assert!(t3 > t2);
        assert_eq!(fs.clients[h(1).index()].dirty_block_count(id), 0);
        assert_eq!(
            fs.server(h(0)).unwrap().file(id).unwrap().read_at(0, 7),
            b"sync me"
        );
    }

    #[test]
    fn reads_past_eof_are_short() {
        let (mut net, mut fs) = setup(2);
        let t0 = SimTime::ZERO;
        fs.create(&mut net, t0, h(1), SpritePath::new("/f"))
            .unwrap();
        let (s, t1) = fs
            .open(
                &mut net,
                t0,
                h(1),
                SpritePath::new("/f"),
                OpenMode::ReadWrite,
            )
            .unwrap();
        let t2 = fs.write(&mut net, t1, h(1), s, b"abc").unwrap();
        fs.seek(s, 0).unwrap();
        let mut data = Vec::new();
        fs.read(&mut net, t2, h(1), s, 100, &mut data).unwrap();
        assert_eq!(&data, b"abc");
        let mut empty = Vec::new();
        fs.read(&mut net, t2, h(1), s, 100, &mut empty).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn name_cache_skips_lookup_cost_on_repeat_opens() {
        let mut net = Transport::new(sprite_net::CostModel::sun3(), 2);
        let mut fs = SpriteFs::new(
            FsConfig {
                client_name_caching: true,
                ..FsConfig::default()
            },
            2,
        );
        fs.add_server(h(0), SpritePath::new("/"));
        let t0 = SimTime::ZERO;
        let deep = SpritePath::new("/a/b/c/d/e/f");
        fs.create(&mut net, t0, h(1), deep.clone()).unwrap();
        let (s1, t1) = fs
            .open(&mut net, t0, h(1), deep.clone(), OpenMode::Read)
            .unwrap();
        let first = t1.elapsed_since(t0);
        let t1b = fs.close(&mut net, t1, h(1), s1).unwrap();
        let (s2, t2) = fs
            .open(&mut net, t1b, h(1), deep.clone(), OpenMode::Read)
            .unwrap();
        let second = t2.elapsed_since(t1b);
        assert!(
            second < first,
            "repeat open {second} should beat first {first}"
        );
        assert_eq!(fs.stats().name_cache_hits, 1);
        fs.close(&mut net, t2, h(1), s2).unwrap();
        // Unlink invalidates the cached name: the next open must fail, not
        // resurrect the file through a stale translation.
        fs.unlink(&mut net, t2, h(1), &deep).unwrap();
        assert!(matches!(
            fs.open(&mut net, t2, h(1), deep, OpenMode::Read),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn second_server_owns_its_domain() {
        let mut net = Transport::new(sprite_net::CostModel::sun3(), 3);
        let mut fs = SpriteFs::new(FsConfig::default(), 3);
        fs.add_server(h(0), SpritePath::new("/"));
        fs.add_server(h(2), SpritePath::new("/swap"));
        assert_eq!(fs.resolve(&SpritePath::new("/src/x.c")).unwrap(), h(0));
        assert_eq!(fs.resolve(&SpritePath::new("/swap/p1.heap")).unwrap(), h(2));
        let t0 = SimTime::ZERO;
        let (swap_file, t) = fs
            .create_backing(&mut net, t0, h(1), SpritePath::new("/swap/p1.heap"))
            .unwrap();
        let (root_file, t) = fs
            .create(&mut net, t, h(1), SpritePath::new("/src/x.c"))
            .unwrap();
        // Each file lives on its own server.
        assert_eq!(fs.home_of(swap_file), Some(h(2)));
        assert_eq!(fs.home_of(root_file), Some(h(0)));
        assert_eq!(fs.backing_files().collect::<Vec<_>>(), [swap_file]);
        assert!(fs
            .server(h(2))
            .unwrap()
            .lookup(&SpritePath::new("/swap/p1.heap"))
            .is_some());
        assert!(fs
            .server(h(0))
            .unwrap()
            .lookup(&SpritePath::new("/swap/p1.heap"))
            .is_none());
        // Paging traffic charges the swap server's CPU, not the root's.
        let before_root = fs.server(h(0)).unwrap().cpu.busy_time();
        let before_swap = fs.server(h(2)).unwrap().cpu.busy_time();
        fs.page_out(&mut net, t, h(1), swap_file, 0, &[Frame::from([1u8; 4096])])
            .unwrap();
        assert_eq!(fs.server(h(0)).unwrap().cpu.busy_time(), before_root);
        assert!(fs.server(h(2)).unwrap().cpu.busy_time() > before_swap);
    }

    #[test]
    fn unlink_while_open_reads_eof() {
        let (mut net, mut fs) = setup(3);
        let t0 = SimTime::ZERO;
        let path = SpritePath::new("/u");
        for unlinker in [h(1), h(2)] {
            let (id, t1) = fs.create(&mut net, t0, h(1), path.clone()).unwrap();
            let (s, t1) = fs
                .open(&mut net, t1, h(1), path.clone(), OpenMode::ReadWrite)
                .unwrap();
            let t2 = fs.write(&mut net, t1, h(1), s, b"gone soon").unwrap();
            // The unlink drops the writer's dirty block, wherever it runs.
            let t3 = fs.unlink(&mut net, t2, unlinker, &path).unwrap();
            assert_eq!(fs.clients[h(1).index()].dirty_block_count(id), 0);
            fs.seek(s, 0).unwrap();
            let mut data = Vec::new();
            fs.read(&mut net, t3, h(1), s, 16, &mut data).unwrap();
            assert!(
                data.is_empty(),
                "documented divergence: unlinked file reads EOF"
            );
            // Flushing, migrating and closing the orphaned stream must not
            // error.
            let t4 = fs.fsync(&mut net, t3, h(1), s).unwrap();
            let (moved, t5) = fs.migrate_stream(&mut net, t4, s, h(1), h(2), 1).unwrap();
            assert!(!moved.shadowed);
            fs.close(&mut net, t5, h(2), s).unwrap();
        }
        assert!(fs.streams().is_empty());
    }

    #[test]
    fn stats_reset_is_complete() {
        let (mut net, mut fs) = setup(2);
        let t0 = SimTime::ZERO;
        fs.create(&mut net, t0, h(1), SpritePath::new("/r"))
            .unwrap();
        let (s, t1) = fs
            .open(
                &mut net,
                t0,
                h(1),
                SpritePath::new("/r"),
                OpenMode::ReadWrite,
            )
            .unwrap();
        fs.write(&mut net, t1, h(1), s, b"x").unwrap();
        assert!(fs.stats().opens > 0 && fs.stats().bytes_written > 0);
        fs.reset_stats();
        let st = fs.stats();
        assert_eq!(st.opens, 0);
        assert_eq!(st.bytes_written, 0);
        assert_eq!(st.lookups, 0);
    }

    fn sharded_setup(hosts: usize, shards: usize) -> (Transport, SpriteFs) {
        let net = Transport::new(CostModel::sun3(), hosts);
        let mut fs = SpriteFs::new(FsConfig::default(), hosts);
        for i in 0..shards {
            fs.add_server(HostId::new(i as u32), SpritePath::new("/"));
        }
        (net, fs)
    }

    #[test]
    fn striped_domain_spreads_files_across_members() {
        let (mut net, mut fs) = sharded_setup(6, 3);
        assert_eq!(fs.fs_shards(), 3);
        let mut t = SimTime::ZERO;
        let mut homes = std::collections::BTreeSet::new();
        for i in 0..32 {
            let (id, t1) = fs
                .create(&mut net, t, h(4), SpritePath::new(format!("/src/f{i}.c")))
                .unwrap();
            t = t1;
            let home = fs.home_of(id).unwrap();
            assert_eq!(
                fs.resolve(&SpritePath::new(format!("/src/f{i}.c")))
                    .unwrap(),
                home
            );
            homes.insert(home);
        }
        assert_eq!(homes.len(), 3, "files should land on all three members");
    }

    #[test]
    fn first_contact_pays_one_shard_redirect_per_host() {
        let (mut net, mut fs) = sharded_setup(6, 3);
        let t0 = SimTime::ZERO;
        let (_, t1) = fs
            .create(&mut net, t0, h(4), SpritePath::new("/a"))
            .unwrap();
        assert_eq!(fs.stats().shard_redirects, 1);
        let (_, t2) = fs
            .create(&mut net, t1, h(4), SpritePath::new("/b"))
            .unwrap();
        assert_eq!(fs.stats().shard_redirects, 1, "table cached at the client");
        let (s, t3) = fs
            .open(&mut net, t2, h(5), SpritePath::new("/a"), OpenMode::Read)
            .unwrap();
        assert_eq!(fs.stats().shard_redirects, 2, "each host learns it once");
        fs.close(&mut net, t3, h(5), s).unwrap();
        // A group member never pays the redirect.
        let (_, _) = fs
            .create(&mut net, t3, h(0), SpritePath::new("/c"))
            .unwrap();
        assert_eq!(fs.stats().shard_redirects, 2);
    }

    #[test]
    fn hot_file_is_replicated_and_write_open_invalidates() {
        let (mut net, mut fs) = sharded_setup(9, 2);
        let t0 = SimTime::ZERO;
        let payload = vec![3u8; 12 * PAGE_SIZE as usize];
        fs.create(&mut net, t0, h(2), SpritePath::new("/hot"))
            .unwrap();
        let (w, t1) = fs
            .open(&mut net, t0, h(2), SpritePath::new("/hot"), OpenMode::Write)
            .unwrap();
        let t2 = fs.write(&mut net, t1, h(2), w, &payload).unwrap();
        let t3 = fs.close(&mut net, t2, h(2), w).unwrap();
        // A parade of distinct readers: each switch of reading host heats
        // the file; once HOT_THRESHOLD switches accumulate the home pushes
        // a copy to the group peer and later reads rotate over both.
        let mut t = t3;
        let mut last = Vec::new();
        for reader in [h(3), h(4), h(5), h(6), h(7), h(8)] {
            let (r, t4) = fs
                .open(&mut net, t, reader, SpritePath::new("/hot"), OpenMode::Read)
                .unwrap();
            let mut data = Vec::new();
            let t5 = fs
                .read(&mut net, t4, reader, r, payload.len() as u64, &mut data)
                .unwrap();
            assert_eq!(data, payload);
            t = fs.close(&mut net, t5, reader, r).unwrap();
            last = data;
        }
        assert_eq!(last, payload);
        assert!(
            fs.stats().replica_hits > 0,
            "late readers should be served by the replica peer"
        );
        let t5 = t;
        let home = fs.resolve(&SpritePath::new("/hot")).unwrap();
        let peer = if home == h(0) { h(1) } else { h(0) };
        assert!(
            fs.server(peer).unwrap().cpu.busy_time() > SimDuration::ZERO,
            "replica peer CPU did real work"
        );
        // A write-open bumps the version and drops the replica set.
        let (w2, t6) = fs
            .open(&mut net, t5, h(2), SpritePath::new("/hot"), OpenMode::Write)
            .unwrap();
        assert!(fs.stats().replica_invalidates > 0);
        let t7 = fs.write(&mut net, t6, h(2), w2, b"NEW").unwrap();
        let t8 = fs.close(&mut net, t7, h(2), w2).unwrap();
        // A reader re-opens and must see the new bytes, never a stale
        // replica copy.
        let (r2, t9) = fs
            .open(&mut net, t8, h(4), SpritePath::new("/hot"), OpenMode::Read)
            .unwrap();
        let mut head = Vec::new();
        fs.read(&mut net, t9, h(4), r2, 3, &mut head).unwrap();
        assert_eq!(&head, b"NEW");
    }

    #[test]
    fn striped_paging_spreads_service_across_the_group() {
        let (mut net, mut fs) = sharded_setup(4, 2);
        let t0 = SimTime::ZERO;
        let (swap, t1) = fs
            .create_backing(&mut net, t0, h(3), SpritePath::new("/swap/big"))
            .unwrap();
        let page = Frame::from(vec![0x5au8; PAGE_SIZE as usize]);
        let mut t = t1;
        for p in 0..6 {
            t = fs
                .page_out(&mut net, t, h(3), swap, p, std::slice::from_ref(&page))
                .unwrap();
        }
        for p in 0..6 {
            let (back, t2) = fs.page_in(&mut net, t, h(3), swap, p).unwrap();
            assert_eq!(back, page);
            t = t2;
        }
        assert!(fs.server(h(0)).unwrap().cpu.busy_time() > SimDuration::ZERO);
        assert!(fs.server(h(1)).unwrap().cpu.busy_time() > SimDuration::ZERO);
    }

    #[test]
    fn server_loads_report_per_daemon_contention() {
        let (mut net, mut fs) = sharded_setup(4, 2);
        let t0 = SimTime::ZERO;
        fs.create(&mut net, t0, h(2), SpritePath::new("/x"))
            .unwrap();
        let (s, t1) = fs
            .open(
                &mut net,
                t0,
                h(2),
                SpritePath::new("/x"),
                OpenMode::ReadWrite,
            )
            .unwrap();
        let t2 = fs.write(&mut net, t1, h(2), s, &[1u8; 9000]).unwrap();
        fs.close(&mut net, t2, h(2), s).unwrap();
        let loads = fs.server_loads();
        assert_eq!(loads.len(), 2);
        assert!(loads.iter().any(|l| l.requests > 0));
        assert_eq!(
            fs.server_busy_max(),
            loads.iter().map(|l| l.busy).max().unwrap()
        );
    }

    #[test]
    fn reads_to_the_end_of_the_offset_range_stop_at_eof() {
        let (mut net, mut fs) = setup(2);
        let t0 = SimTime::ZERO;
        for name in ["/f", "/img"] {
            fs.create(&mut net, t0, h(1), SpritePath::new(name))
                .unwrap();
        }
        let (s, t1) = fs
            .open(
                &mut net,
                t0,
                h(1),
                SpritePath::new("/f"),
                OpenMode::ReadWrite,
            )
            .unwrap();
        let t2 = fs.write(&mut net, t1, h(1), s, b"abcdef").unwrap();
        fs.seek(s, 3).unwrap();
        // `u64::MAX` asks for the rest of the file: `offset + len` passes
        // the end of the offset range.
        let mut rest = Vec::new();
        fs.read(&mut net, t2, h(1), s, u64::MAX, &mut rest).unwrap();
        assert_eq!(rest, b"def");
        let (img, t3) = fs
            .open(
                &mut net,
                t2,
                h(1),
                SpritePath::new("/img"),
                OpenMode::ReadWrite,
            )
            .unwrap();
        let t4 = fs
            .ckpt_write_blocks(&mut net, t3, h(1), img, &[Frame::from(&b"abcdef"[..])])
            .unwrap();
        // A run read at the last block of the offset range: finding the
        // block must not overflow, and past the end it finds none, with
        // no RPC charged.
        fs.seek(img, u64::MAX).unwrap();
        let calls = net.rpc_table().get(RpcOp::CkptRestore).calls;
        let (none, t5) = fs.ckpt_read_blocks(&mut net, t4, h(1), img, 4).unwrap();
        assert!(none.is_empty());
        assert_eq!(net.rpc_table().get(RpcOp::CkptRestore).calls, calls);
        fs.seek(img, 0).unwrap();
        let (image, _) = fs.ckpt_read_blocks(&mut net, t5, h(1), img, 4).unwrap();
        assert_eq!(image, [Frame::from(&b"abcdef"[..])]);
    }

    /// Host `host`'s cached frame of `file`'s block `block`, under the
    /// file's current version.
    fn cached(fs: &mut SpriteFs, host: HostId, file: FileId, block: u64) -> Frame {
        let (_, version, _) = fs.file_state(h(0), file);
        fs.clients[host.index()]
            .lookup(BlockAddr { file, block }, version)
            .expect("block cached")
    }

    /// The server's frame of whole-page block `block`.
    fn stored(fs: &SpriteFs, file: FileId, block: u64) -> Frame {
        fs.srv(h(0)).file(file).unwrap().frame(block)
    }

    #[test]
    fn client_caches_share_frames_with_the_server_until_written() {
        let (mut net, mut fs) = setup(4);
        let path = SpritePath::new("/shared");
        let (id, t) = fs
            .create(&mut net, SimTime::ZERO, h(1), path.clone())
            .unwrap();
        let page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        let (w, t) = fs
            .open(&mut net, t, h(1), path.clone(), OpenMode::Write)
            .unwrap();
        let t = fs.write(&mut net, t, h(1), w, &page).unwrap();
        let written = cached(&mut fs, h(1), id, 0);
        let mut t = fs.close(&mut net, t, h(1), w).unwrap();
        // The write-back stored the writer's frame by reference.
        assert!(Frame::ptr_eq(&stored(&fs, id, 0), &written));
        // A remote fetch caches the server's frame, and a hit hands it out.
        let mut buf = Vec::new();
        for reader in [h(2), h(3)] {
            let (r, t1) = fs
                .open(&mut net, t, reader, path.clone(), OpenMode::Read)
                .unwrap();
            let t2 = fs
                .read(&mut net, t1, reader, r, PAGE_SIZE, &mut buf)
                .unwrap();
            assert_eq!(buf, page);
            t = fs.close(&mut net, t2, reader, r).unwrap();
            assert!(Frame::ptr_eq(&cached(&mut fs, reader, id, 0), &written));
        }
        let other_reader = cached(&mut fs, h(3), id, 0);
        // A partial write copies the shared frame: the server's frame and
        // the other reader's cached copy keep their bytes until write-back.
        let (w2, t) = fs
            .open(&mut net, t, h(2), path.clone(), OpenMode::Write)
            .unwrap();
        fs.seek(w2, 10).unwrap();
        let t = fs.write(&mut net, t, h(2), w2, b"XYZ").unwrap();
        let mut edited = page.clone();
        edited[10..13].copy_from_slice(b"XYZ");
        let dirty = cached(&mut fs, h(2), id, 0);
        assert_eq!(*dirty, edited[..]);
        assert!(Frame::ptr_eq(&stored(&fs, id, 0), &written));
        assert_eq!(*written, page[..]);
        assert_eq!(*other_reader, page[..]);
        let t = fs.close(&mut net, t, h(2), w2).unwrap();
        assert!(Frame::ptr_eq(&stored(&fs, id, 0), &dirty));
        // The writer's clean copy is the server's frame now; writing it
        // again copies it rather than changing the server's bytes.
        let (w3, t) = fs.open(&mut net, t, h(2), path, OpenMode::Write).unwrap();
        fs.seek(w3, 20).unwrap();
        fs.write(&mut net, t, h(2), w3, b"!").unwrap();
        assert_eq!(*stored(&fs, id, 0), edited[..]);
        assert_eq!(*other_reader, page[..]);
    }

    #[test]
    fn fetched_blocks_are_cached_at_read_block_length() {
        let (mut net, mut fs) = setup(3);
        let path = SpritePath::new("/tail");
        let (id, t) = fs
            .create(&mut net, SimTime::ZERO, h(1), path.clone())
            .unwrap();
        let write = |fs: &mut SpriteFs, net: &mut Transport, t, at: u64, len: usize| {
            let (w, t) = fs
                .open(net, t, h(1), path.clone(), OpenMode::Write)
                .unwrap();
            fs.seek(w, at).unwrap();
            let t = fs.write(net, t, h(1), w, &vec![7; len]).unwrap();
            fs.close(net, t, h(1), w).unwrap()
        };
        let read_all = |fs: &mut SpriteFs, net: &mut Transport, t| {
            let (r, t) = fs.open(net, t, h(2), path.clone(), OpenMode::Read).unwrap();
            let t = fs.read(net, t, h(2), r, u64::MAX, &mut Vec::new()).unwrap();
            fs.close(net, t, h(2), r).unwrap()
        };
        let expect_block = |fs: &mut SpriteFs, block: u64| {
            let want = fs.srv(h(0)).file(id).unwrap().read_block(block);
            assert_eq!(*cached(fs, h(2), id, block), want[..], "block {block}");
        };
        // A whole block and a 100-byte written tail: the tail's frame is
        // shared at its own length.
        let t = write(&mut fs, &mut net, t, 0, PAGE_SIZE as usize + 100);
        let t = read_all(&mut fs, &mut net, t);
        expect_block(&mut fs, 1);
        let tail = cached(&mut fs, h(2), id, 1);
        assert_eq!(tail.len(), 100);
        let stored_tail = fs.srv(h(0)).file(id).unwrap().read_block_frame(1);
        assert!(Frame::ptr_eq(&tail, &stored_tail.unwrap()));
        // A write two blocks on leaves block 1's stored prefix shorter than
        // the written length and block 2 a gap: both are cached as copies
        // zero-filled to a whole block.
        let t = write(&mut fs, &mut net, t, 3 * PAGE_SIZE, 5);
        read_all(&mut fs, &mut net, t);
        for block in 0..4 {
            expect_block(&mut fs, block);
        }
        assert_eq!(cached(&mut fs, h(2), id, 1).len(), PAGE_SIZE as usize);
        assert_eq!(cached(&mut fs, h(2), id, 3).len(), 5);
    }

    #[test]
    fn sparse_writes_read_back_zero_filled() {
        let (mut net, mut fs) = setup(2);
        let t0 = SimTime::ZERO;
        fs.create(&mut net, t0, h(1), SpritePath::new("/f"))
            .unwrap();
        let (s, t1) = fs
            .open(
                &mut net,
                t0,
                h(1),
                SpritePath::new("/f"),
                OpenMode::ReadWrite,
            )
            .unwrap();
        fs.seek(s, 3 * PAGE_SIZE).unwrap();
        let t2 = fs.write(&mut net, t1, h(1), s, b"tail").unwrap();
        fs.seek(s, PAGE_SIZE).unwrap();
        let mut data = Vec::new();
        fs.read(&mut net, t2, h(1), s, PAGE_SIZE, &mut data)
            .unwrap();
        assert_eq!(data, vec![0u8; PAGE_SIZE as usize]);
        fs.seek(s, 3 * PAGE_SIZE).unwrap();
        let mut tail = Vec::new();
        fs.read(&mut net, t2, h(1), s, 4, &mut tail).unwrap();
        assert_eq!(&tail, b"tail");
    }
}
