//! Namespace sharding: the two-level prefix → server-group map.
//!
//! The name space is carved into domains by longest-prefix match, and a
//! domain may be exported by a *group* of servers instead of one: names
//! inside a striped domain are spread across the group by the FNV-1a hash
//! of the path text that every [`SpritePath`] carries, taken modulo the
//! group size. The text is the same in every run, so shard placement is a
//! pure function of the name and the group size.

use sprite_net::HostId;

use crate::SpritePath;

/// One exported domain: a prefix and the servers that jointly export it.
///
/// A group of one is the classic single-server domain. A larger group
/// stripes the domain's names across its members; the member list keeps
/// insertion order so `servers[0]` is the stable "anchor" a client's first
/// contact goes through.
#[derive(Debug, Clone)]
pub struct ShardGroup {
    /// The domain prefix (longest-prefix match against open paths).
    pub prefix: SpritePath,
    /// The servers exporting the domain, in registration order.
    pub servers: Vec<HostId>,
}

impl ShardGroup {
    /// The member that owns `path`: the path's hash modulo the group size.
    pub(crate) fn owner_of(&self, path: &SpritePath) -> HostId {
        self.servers[self.member_index(path)]
    }

    /// Index into `servers` for `path` (see [`ShardGroup::owner_of`]).
    pub(crate) fn member_index(&self, path: &SpritePath) -> usize {
        (path.hash % self.servers.len() as u64) as usize
    }
}

/// The two-level resolution map: longest prefix picks a [`ShardGroup`],
/// the path hash picks the member server.
#[derive(Debug, Clone, Default)]
pub struct ShardMap {
    groups: Vec<ShardGroup>,
}

impl ShardMap {
    /// An empty map (no domains exported).
    pub fn new() -> Self {
        ShardMap::default()
    }

    /// Registers `host` as an exporter of `prefix`. Registering a second
    /// host under the same prefix turns the domain into a striped group;
    /// re-registering an existing member is a no-op.
    pub fn add(&mut self, host: HostId, prefix: SpritePath) {
        if let Some(g) = self.groups.iter_mut().find(|g| g.prefix == prefix) {
            if !g.servers.contains(&host) {
                g.servers.push(host);
            }
            return;
        }
        self.groups.push(ShardGroup {
            prefix,
            servers: vec![host],
        });
        // Longest prefix first, ties by path order for a stable table.
        self.groups.sort_by(|a, b| {
            b.prefix
                .depth()
                .cmp(&a.prefix.depth())
                .then_with(|| a.prefix.cmp(&b.prefix))
        });
    }

    /// The group exporting the domain containing `path`, with its index
    /// in the (stable) group table.
    pub(crate) fn group_of(&self, path: &SpritePath) -> Option<(usize, &ShardGroup)> {
        self.groups
            .iter()
            .enumerate()
            .find(|(_, g)| path.starts_with(&g.prefix))
    }

    /// Full route for `path`: group index and the owning member server.
    pub fn route(&self, path: &SpritePath) -> Option<(usize, HostId)> {
        self.group_of(path).map(|(i, g)| (i, g.owner_of(path)))
    }

    /// Group by index (the index `ShardMap::group_of` reported).
    pub fn group(&self, index: usize) -> Option<&ShardGroup> {
        self.groups.get(index)
    }

    /// All groups, longest prefix first.
    pub fn groups(&self) -> &[ShardGroup] {
        &self.groups
    }

    /// Number of exported domains.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when no domain is exported yet.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The widest group size — 1 means the namespace is unsharded.
    pub(crate) fn max_group_size(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.servers.len())
            .max()
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    #[test]
    fn single_server_group_routes_everything_to_it() {
        let mut m = ShardMap::new();
        m.add(h(0), SpritePath::new("/"));
        assert_eq!(m.route(&SpritePath::new("/a/b")), Some((0, h(0))));
        assert_eq!(m.route(&SpritePath::new("/x")), Some((0, h(0))));
    }

    #[test]
    fn longest_prefix_wins_over_group_size() {
        let mut m = ShardMap::new();
        m.add(h(0), SpritePath::new("/"));
        m.add(h(1), SpritePath::new("/"));
        m.add(h(2), SpritePath::new("/swap"));
        let (_, owner) = m.route(&SpritePath::new("/swap/p1")).unwrap();
        assert_eq!(owner, h(2));
        let (gi, g) = m.group_of(&SpritePath::new("/src/a.c")).unwrap();
        assert_eq!(g.servers, vec![h(0), h(1)]);
        assert_eq!(m.group(gi).unwrap().prefix, SpritePath::new("/"));
    }

    #[test]
    fn striped_group_spreads_names_and_is_stable() {
        let mut m = ShardMap::new();
        m.add(h(0), SpritePath::new("/"));
        m.add(h(3), SpritePath::new("/"));
        m.add(h(5), SpritePath::new("/"));
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..64 {
            let p = SpritePath::new(format!("/src/file{i}.c"));
            let (_, owner) = m.route(&p).unwrap();
            // Placement is a pure function of the text: re-resolving agrees.
            assert_eq!(m.route(&p).unwrap().1, owner);
            seen.insert(owner);
        }
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            vec![h(0), h(3), h(5)],
            "64 names should land on all three members"
        );
    }

    #[test]
    fn duplicate_registration_is_ignored() {
        let mut m = ShardMap::new();
        m.add(h(0), SpritePath::new("/"));
        m.add(h(0), SpritePath::new("/"));
        assert_eq!(m.groups()[0].servers, vec![h(0)]);
        assert_eq!(m.max_group_size(), 1);
    }

    #[test]
    fn placement_over_three_members_is_pinned() {
        // E5, M1 and `pmake_build` place files by this map, so a change
        // to the hash or its reduction must move none of these owners.
        let g = ShardGroup {
            prefix: SpritePath::new("/"),
            servers: vec![h(0), h(3), h(5)],
        };
        let pinned = [
            ("/", 0),
            ("/src", 5),
            ("/src/main.c", 5),
            ("/src/main.o", 5),
            ("/src/file0.c", 0),
            ("/src/file1.c", 5),
            ("/src/file17.c", 5),
            ("/src/f63.dat", 3),
            ("/bin/cc", 0),
            ("/bin/sim", 0),
            ("/swap/p1.heap", 3),
            ("/swap/p1.stack", 5),
            ("/ckpt/image.7", 3),
            ("/users/douglis/thesis.tex", 3),
            ("/data/e01.a.3", 0),
            ("/prop/file9", 0),
        ];
        for (name, owner) in pinned {
            assert_eq!(g.owner_of(&SpritePath::new(name)), h(owner), "{name}");
        }
    }
}
