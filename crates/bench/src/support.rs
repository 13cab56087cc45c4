//! Shared scaffolding for the experiment harness.

use sprite_core::{MigrationConfig, Migrator};
use sprite_fs::SpritePath;
use sprite_hostsel::{AvailabilityPolicy, CentralServer, HostInfo, HostSelector};
use sprite_kernel::Cluster;
use sprite_net::{CostModel, HostId, PAGE_SIZE};
use sprite_sim::{SimDuration, SimTime};
use sprite_vm::{SegmentKind, VirtAddr};

/// Host index shorthand.
pub fn h(i: u32) -> HostId {
    HostId::new(i)
}

/// A standard experiment cluster: `hosts` machines, file server on host 0,
/// `/bin/sim` and `/bin/cc` installed. Returns the cluster and the time at
/// which setup finished.
pub fn standard_cluster(hosts: usize) -> (Cluster, SimTime) {
    cluster_with(CostModel::sun3(), hosts, sprite_fs::FsConfig::default())
}

/// Like [`standard_cluster`] but with an explicit hardware generation and
/// file-system configuration — the ablations sweep these.
pub fn cluster_with(
    cost: CostModel,
    hosts: usize,
    fs_config: sprite_fs::FsConfig,
) -> (Cluster, SimTime) {
    let mut c = Cluster::with_fs_config(cost, hosts, fs_config);
    c.add_file_server(h(0), SpritePath::new("/"));
    let t = c
        .install_program(SimTime::ZERO, SpritePath::new("/bin/sim"), 32 * 1024)
        .expect("install /bin/sim");
    let t = c
        .install_program(t, SpritePath::new("/bin/cc"), 48 * 1024)
        .expect("install /bin/cc");
    (c, t)
}

/// Like [`standard_cluster`] but the root domain is exported by a striped
/// group of `fs_shards` server daemons on hosts `0..fs_shards` (clamped to
/// `[1, hosts-1]`). At one shard this is exactly [`standard_cluster`]'s
/// layout; at N the namespace, replica serving and paging stripes spread
/// across N server CPUs.
pub fn sharded_cluster(hosts: usize, fs_shards: usize) -> (Cluster, SimTime) {
    let shards = fs_shards.clamp(1, hosts.saturating_sub(1).max(1));
    let mut c = Cluster::with_fs_config(CostModel::sun3(), hosts, sprite_fs::FsConfig::default());
    let servers: Vec<HostId> = (0..shards as u32).map(h).collect();
    c.add_sharded_file_service(&servers, SpritePath::new("/"));
    let t = c
        .install_program(SimTime::ZERO, SpritePath::new("/bin/sim"), 32 * 1024)
        .expect("install /bin/sim");
    let t = c
        .install_program(t, SpritePath::new("/bin/cc"), 48 * 1024)
        .expect("install /bin/cc");
    (c, t)
}

/// CPU busy time so far of the file server on `host` (zero when `host`
/// serves no files). Sampled around a build, it gives the server's load
/// during that build alone.
pub fn server_busy(cluster: &Cluster, host: HostId) -> SimDuration {
    cluster
        .fs
        .server(host)
        .map_or(SimDuration::ZERO, |s| s.cpu.busy_time())
}

/// A default migrator for `hosts`.
pub fn standard_migrator(hosts: usize) -> Migrator {
    Migrator::new(MigrationConfig::default(), hosts)
}

/// A central-server selector already told that hosts `first..hosts` are
/// idle (hosts below `first` are reserved: server, home, ...).
pub fn warmed_selector(cluster: &mut Cluster, hosts: usize, first: u32) -> CentralServer {
    warm(
        cluster,
        CentralServer::new(h(0), AvailabilityPolicy::default()),
        hosts,
        first,
    )
}

/// The central daemon spread over `daemons` hosts, warmed the same way as
/// [`warmed_selector`]: hosts below `first` reported busy, the rest idle
/// for an hour.
pub fn warmed_sharded_selector(
    cluster: &mut Cluster,
    hosts: usize,
    daemons: usize,
    first: u32,
) -> CentralServer {
    let sel = CentralServer::sharded(hosts, daemons, AvailabilityPolicy::default());
    warm(cluster, sel, hosts, first)
}

fn warm(cluster: &mut Cluster, mut sel: CentralServer, hosts: usize, first: u32) -> CentralServer {
    for i in 0..hosts as u32 {
        let info = if i < first {
            HostInfo {
                host: h(i),
                load: 2.0,
                idle: SimDuration::ZERO,
                console_active: true,
                speed: 1.0,
            }
        } else {
            HostInfo::idle_host(h(i), SimDuration::from_secs(3600))
        };
        sel.report(&mut cluster.net, SimTime::ZERO, info);
    }
    sel
}

/// Dirties `megabytes` of a process's heap so migration has something to
/// move. Returns the completion time.
pub fn dirty_heap(
    cluster: &mut Cluster,
    now: SimTime,
    pid: sprite_kernel::ProcessId,
    megabytes: f64,
) -> SimTime {
    let bytes = (megabytes * 1024.0 * 1024.0) as u64;
    if bytes == 0 {
        return now;
    }
    let host = cluster.pcb(pid).expect("pid exists").current;
    let mut space = cluster
        .pcb_mut(pid)
        .expect("pid exists")
        .space
        .take()
        .expect("process has a space");
    let data = vec![0xd7u8; bytes as usize];
    let t = space
        .write(
            &mut cluster.fs,
            &mut cluster.net,
            now,
            host,
            VirtAddr::new(SegmentKind::Heap, 0),
            &data,
        )
        .expect("heap write");
    cluster.pcb_mut(pid).expect("pid exists").space = Some(space);
    t
}

/// Pages needed for `megabytes` of heap (plus slack).
pub fn pages_for_mb(megabytes: f64) -> u64 {
    ((megabytes * 1024.0 * 1024.0) as u64).div_ceil(PAGE_SIZE) + 4
}

/// Fixed-width table writer so every experiment prints the same way.
#[derive(Debug, Clone)]
pub struct TableWriter {
    title: String,
    header: Vec<String>,
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl TableWriter {
    /// Starts a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        TableWriter {
            title: title.to_owned(),
            header: header.iter().map(|s| s.to_string()).collect(),
            widths: header.iter().map(|s| s.len()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds one row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        for (i, c) in cells.iter().enumerate() {
            self.widths[i] = self.widths[i].max(c.len());
        }
        self.rows.push(cells.to_vec());
    }

    /// Adds a footnote printed under the table.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {}\n\n", self.title));
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{:>width$}", c, width = widths[i]));
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.header, &self.widths));
        let rule: usize = self.widths.iter().sum::<usize>() + 2 * (self.widths.len() - 1);
        out.push_str(&format!("{}\n", "-".repeat(rule)));
        for r in &self.rows {
            out.push_str(&line(r, &self.widths));
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }
}

/// Renders a transport's per-op traffic table ([`sprite_net::RpcTable`])
/// with a trailing totals row; the totals equal the raw [`NetStats`]
/// counters because every wire byte is attributed to a typed op.
///
/// [`NetStats`]: sprite_net::NetStats
pub fn rpc_table_text(title: &str, table: &sprite_net::RpcTable) -> String {
    let mut t = TableWriter::new(title, &["op", "calls", "messages", "bytes", "mean rtt"]);
    for (op, row) in table.rows() {
        t.row(&[
            op.label().into(),
            row.calls.to_string(),
            row.messages.to_string(),
            row.bytes.to_string(),
            format!("{:.2}ms", row.rtt.mean() * 1e3),
        ]);
    }
    t.row(&[
        "total".into(),
        table.total_calls().to_string(),
        table.total_messages().to_string(),
        table.total_bytes().to_string(),
        "".into(),
    ]);
    t.render()
}

/// Renders a per-op fault breakdown ([`sprite_net::FaultStats`]): only ops
/// that saw at least one fault event appear, in table order.
pub fn fault_table_text(title: &str, table: &sprite_net::FaultStats) -> String {
    let mut t = TableWriter::new(
        title,
        &["op", "drops", "partitions", "crashes", "retries", "giveups"],
    );
    for (op, row) in table.rows() {
        t.row(&[
            op.label().into(),
            row.drops.to_string(),
            row.partitions.to_string(),
            row.crashes.to_string(),
            row.retries.to_string(),
            row.giveups.to_string(),
        ]);
    }
    if table.is_empty() {
        t.note("no fault events recorded");
    }
    t.render()
}

/// A JSON object written field by field, as [`TableWriter`] writes a
/// table: `experiments --json` writes its document and every experiment's
/// block through it. Numbers and booleans go in already formatted.
#[derive(Debug, Clone, Default)]
pub struct JsonObject(Vec<(String, JsonValue)>);

#[derive(Debug, Clone)]
enum JsonValue {
    Raw(String),
    Object(JsonObject),
    Rows(Vec<JsonObject>),
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a number or boolean, written as its `Display` text.
    pub fn num(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.0.push((key.into(), JsonValue::Raw(value.to_string())));
        self
    }

    /// Adds a string, quoted and escaped.
    pub fn text(self, key: &str, value: &str) -> Self {
        self.num(key, json_string(value))
    }

    /// Adds a nested object, written over several lines.
    pub fn object(mut self, key: &str, value: JsonObject) -> Self {
        self.0.push((key.into(), JsonValue::Object(value)));
        self
    }

    /// Adds an array of objects, written one object per line.
    pub fn rows(mut self, key: &str, rows: impl IntoIterator<Item = JsonObject>) -> Self {
        self.0
            .push((key.into(), JsonValue::Rows(rows.into_iter().collect())));
        self
    }

    /// The object over several lines, each nesting level indented two more
    /// spaces; the objects of an array print one per line.
    pub fn render(&self) -> String {
        self.render_at(Some(0))
    }

    /// The object at `indent`, or on one line when `indent` is `None`.
    fn render_at(&self, indent: Option<usize>) -> String {
        // Joins `items` on one line, or one per line `depth` levels in.
        let lines = |items: Vec<String>, depth: usize, open: &str, close: &str| match indent {
            Some(i) if !items.is_empty() => {
                let pad = " ".repeat(i + depth);
                let items = items.join(&format!(",\n{pad}"));
                format!("{open}\n{pad}{items}\n{}{close}", " ".repeat(i + depth - 2))
            }
            _ => format!("{open}{}{close}", items.join(", ")),
        };
        let fields = self.0.iter().map(|(key, value)| {
            let value = match value {
                JsonValue::Raw(text) => text.clone(),
                JsonValue::Object(object) => object.render_at(indent.map(|i| i + 2)),
                JsonValue::Rows(rows) => lines(
                    rows.iter().map(|row| row.render_at(None)).collect(),
                    4,
                    "[",
                    "]",
                ),
            };
            format!("{}: {value}", json_string(key))
        });
        lines(fields.collect(), 2, "{", "}")
    }
}

/// `s` as a quoted JSON string.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a duration in milliseconds with two decimals.
pub fn ms(d: SimDuration) -> String {
    format!("{:.2}", d.as_millis_f64())
}

/// Formats a duration in seconds with two decimals.
pub fn secs(d: SimDuration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TableWriter::new("demo", &["col", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        t.note("a note");
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("note: a note"));
        assert!(s.lines().count() >= 6);
    }

    #[test]
    fn json_object_nests_blocks_and_rows() {
        let doc = JsonObject::new()
            .num("jobs", 1)
            .rows("rows", [JsonObject::new().text("id", "a\"b").num("n", 2)])
            .object("block", JsonObject::new().num("ok", true).rows("none", []));
        assert_eq!(
            doc.render(),
            "{\n  \"jobs\": 1,\n  \"rows\": [\n    {\"id\": \"a\\\"b\", \"n\": 2}\n  ],\n  \
             \"block\": {\n    \"ok\": true,\n    \"none\": []\n  }\n}"
        );
    }

    #[test]
    fn standard_cluster_is_usable() {
        let (mut c, t) = standard_cluster(4);
        let (pid, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        let t2 = dirty_heap(&mut c, t, pid, 0.05);
        assert!(t2 > t);
        assert!(c.pcb(pid).unwrap().space.as_ref().unwrap().dirty_pages() > 0);
    }

    #[test]
    fn sharded_cluster_reduces_to_standard_at_one_shard() {
        let (_c1, t1) = standard_cluster(4);
        let (c2, t2) = sharded_cluster(4, 1);
        assert_eq!(t1, t2, "one shard is byte-for-byte the classic layout");
        assert_eq!(c2.fs.fs_shards(), 1);
        let (c3, _) = sharded_cluster(6, 2);
        assert_eq!(c3.fs.fs_shards(), 2);
    }

    #[test]
    fn pages_for_mb_covers_request() {
        assert!(pages_for_mb(1.0) >= 256);
        assert!(pages_for_mb(0.0) >= 1);
    }
}
