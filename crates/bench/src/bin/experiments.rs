//! Prints the reproduction tables for every experiment (or a subset).
//!
//! ```text
//! cargo run -p sprite-bench --release --bin experiments             # all
//! cargo run -p sprite-bench --release --bin experiments -- e05      # one
//! cargo run -p sprite-bench --release --bin experiments -- list     # index
//! cargo run -p sprite-bench --release --bin experiments -- --jobs 4 # parallel
//! cargo run -p sprite-bench --release --bin experiments -- --json   # sidecar
//! cargo run -p sprite-bench --release --bin experiments -- --faults 42:0.1
//! cargo run -p sprite-bench --release --bin experiments -- --audit   # digest audit
//! cargo run -p sprite-bench --release --bin experiments -- --e10-sweep # 100..10k hosts
//! ```
//!
//! Tables go to stdout and are byte-identical for every `--jobs` value
//! (see `runner`'s determinism contract); wall-clock timings go to stderr
//! and, with `--json`, to `BENCH_experiments.json`.
//!
//! `experiments_output.txt` at the repo root is the stdout of the run
//! `scripts/bench_check.sh` gates; regenerate it after a deliberate change:
//!
//! ```text
//! cargo run -p sprite-bench --release --bin experiments -- \
//!     --jobs 1 --macro --faults 42:0.1 --audit --f02 > experiments_output.txt
//! ```

use std::time::Instant;

use sprite_bench::experiments::{e10, e11, f01, f02, m01, m02};
use sprite_bench::support::{fault_table_text, rpc_table_text};
use sprite_bench::{audit, runner};
use sprite_fs::SpritePath;
use sprite_sim::SimDuration;

struct Options {
    ids: Vec<String>,
    jobs: usize,
    json: bool,
    list: bool,
    macrobench: bool,
    rpc_table: bool,
    /// `--faults seed:rate` — run the F1 fault sweep after the suite.
    faults: Option<(u64, f64)>,
    /// `--audit` — replay the audit drive with state-digest checkpoints
    /// across `--jobs` threads and verify the streams against a serial
    /// in-process reference. Exits 1 on divergence.
    audit: bool,
    /// `--shards N` — logical shard count for the partitioned-parallel
    /// macrobench (0 = one per available core; default 1).
    shards: usize,
    /// `--m02[=HOSTS:DAYS]` — run the partitioned-parallel determinism
    /// macrobench after the suite (serial + sharded drives, stream
    /// comparison). Without operands it runs the full 5000-host month.
    m02: Option<m02::M02Params>,
    /// `--e10-sweep[=SIZES]` — run the decentralized host-selection sweep
    /// (central vs sharded vs gossip) after the suite. SIZES is a
    /// comma-separated host-count list; without operands it runs
    /// 100/1000/10000. Cells run on `--jobs` threads; stdout is identical
    /// for every thread count.
    e10_sweep: Option<Vec<usize>>,
    /// `--f02[=MTBFS:MBS]` — run the checkpoint-vs-migration crossover
    /// sweep after the suite. MTBFS is a comma-separated seconds list and
    /// MBS a comma-separated megabyte list; without operands it runs the
    /// default grid. Cells fan over `--jobs` threads; stdout is identical
    /// for every thread count.
    f02: Option<(Vec<u64>, Vec<f64>)>,
}

/// Parses the `--f02` operand: `<mtbf,...>:<mb,...>`, MTBFs positive
/// integer seconds, image sizes positive megabytes.
fn parse_f02(v: &str) -> Option<(Vec<u64>, Vec<f64>)> {
    let (mtbfs, mbs) = v.split_once(':')?;
    let mtbfs: Vec<u64> = mtbfs
        .split(',')
        .map(|s| s.trim().parse::<u64>().ok().filter(|&m| m >= 1))
        .collect::<Option<_>>()?;
    let mbs: Vec<f64> = mbs
        .split(',')
        .map(|s| s.trim().parse::<f64>().ok().filter(|&m| m > 0.0))
        .collect::<Option<_>>()?;
    (!mtbfs.is_empty() && !mbs.is_empty()).then_some((mtbfs, mbs))
}

/// Parses the `--e10-sweep` operand: comma-separated positive host counts.
fn parse_sweep_sizes(v: &str) -> Option<Vec<usize>> {
    let sizes: Vec<usize> = v
        .split(',')
        .map(|s| s.trim().parse::<usize>().ok().filter(|&n| n >= 2))
        .collect::<Option<_>>()?;
    (!sizes.is_empty()).then_some(sizes)
}

/// Parses the `--m02` operand: `<hosts>:<days>`, both positive.
fn parse_m02(v: &str) -> Option<m02::M02Params> {
    let (hosts, days) = v.split_once(':')?;
    let hosts = hosts.parse::<u32>().ok().filter(|&h| h >= 1)?;
    let days = days.parse::<u64>().ok().filter(|&d| d >= 1)?;
    Some(m02::M02Params { hosts, days })
}

/// Parses the `--faults` operand: `<seed>:<rate>` with an integer seed and
/// a drop rate in `[0, 1]`.
fn parse_faults(v: &str) -> Option<(u64, f64)> {
    let (seed, rate) = v.split_once(':')?;
    let seed = seed.parse::<u64>().ok()?;
    let rate = rate.parse::<f64>().ok()?;
    (0.0..=1.0).contains(&rate).then_some((seed, rate))
}

fn parse_args() -> Options {
    let mut opts = Options {
        ids: Vec::new(),
        jobs: std::thread::available_parallelism().map_or(1, |p| p.get()),
        json: false,
        list: false,
        macrobench: false,
        rpc_table: false,
        faults: None,
        audit: false,
        shards: 1,
        m02: None,
        e10_sweep: None,
        f02: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => opts.jobs = n,
                    _ => {
                        eprintln!("--jobs needs a positive integer, got {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--json" => opts.json = true,
            "--macro" => opts.macrobench = true,
            "--rpc-table" => opts.rpc_table = true,
            "--audit" => opts.audit = true,
            "--m02" => opts.m02 = Some(m02::FULL),
            "--e10-sweep" => opts.e10_sweep = Some(e10::SWEEP_SIZES.to_vec()),
            "--f02" => opts.f02 = Some((f02::MTBFS_SECS.to_vec(), f02::IMAGE_MBS.to_vec())),
            "--shards" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<usize>() {
                    Ok(0) => {
                        opts.shards = std::thread::available_parallelism().map_or(1, |p| p.get());
                    }
                    Ok(n) => opts.shards = n,
                    _ => {
                        eprintln!("--shards needs a non-negative integer (0 = auto), got {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--faults" => {
                let v = args.next().unwrap_or_default();
                match parse_faults(&v) {
                    Some(f) => opts.faults = Some(f),
                    None => {
                        eprintln!("--faults needs <seed>:<rate> with rate in [0,1], got {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            "list" => opts.list = true,
            _ if arg.starts_with("--jobs=") => match arg["--jobs=".len()..].parse::<usize>() {
                Ok(n) if n >= 1 => opts.jobs = n,
                _ => {
                    eprintln!("bad {arg:?}");
                    std::process::exit(2);
                }
            },
            _ if arg.starts_with("--faults=") => match parse_faults(&arg["--faults=".len()..]) {
                Some(f) => opts.faults = Some(f),
                None => {
                    eprintln!("bad {arg:?}; --faults needs <seed>:<rate> with rate in [0,1]");
                    std::process::exit(2);
                }
            },
            _ if arg.starts_with("--shards=") => match arg["--shards=".len()..].parse::<usize>() {
                Ok(0) => {
                    opts.shards = std::thread::available_parallelism().map_or(1, |p| p.get());
                }
                Ok(n) => opts.shards = n,
                _ => {
                    eprintln!("bad {arg:?}; --shards needs a non-negative integer (0 = auto)");
                    std::process::exit(2);
                }
            },
            _ if arg.starts_with("--m02=") => match parse_m02(&arg["--m02=".len()..]) {
                Some(p) => opts.m02 = Some(p),
                None => {
                    eprintln!("bad {arg:?}; --m02 takes <hosts>:<days>, both positive");
                    std::process::exit(2);
                }
            },
            _ if arg.starts_with("--e10-sweep=") => {
                match parse_sweep_sizes(&arg["--e10-sweep=".len()..]) {
                    Some(sizes) => opts.e10_sweep = Some(sizes),
                    None => {
                        eprintln!(
                            "bad {arg:?}; --e10-sweep takes comma-separated host counts >= 2"
                        );
                        std::process::exit(2);
                    }
                }
            }
            _ if arg.starts_with("--f02=") => match parse_f02(&arg["--f02=".len()..]) {
                Some(grid) => opts.f02 = Some(grid),
                None => {
                    eprintln!("bad {arg:?}; --f02 takes <mtbf,...>:<mb,...> (secs:megabytes)");
                    std::process::exit(2);
                }
            },
            _ if arg.starts_with('-') => {
                eprintln!(
                    "unknown flag {arg:?}; flags: --jobs N, --json, --macro, --rpc-table, --faults SEED:RATE, --audit, --shards N, --m02[=HOSTS:DAYS], --e10-sweep[=SIZES], --f02[=MTBFS:MBS], list"
                );
                std::process::exit(2);
            }
            _ => opts.ids.push(arg),
        }
    }
    opts
}

/// Minimal JSON string escape (ids and descriptions are plain ASCII, but
/// stay correct anyway).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The experiments `ids` name, in suite order (the whole suite when `ids`
/// is empty), or every id that names none.
fn select(
    suite: Vec<runner::Experiment>,
    ids: &[String],
) -> Result<Vec<runner::Experiment>, Vec<String>> {
    let unknown: Vec<String> = ids
        .iter()
        .filter(|id| !suite.iter().any(|exp| exp.id == id.as_str()))
        .cloned()
        .collect();
    if !unknown.is_empty() {
        return Err(unknown);
    }
    Ok(suite
        .into_iter()
        .filter(|exp| ids.is_empty() || ids.iter().any(|id| id == exp.id))
        .collect())
}

fn main() {
    let opts = parse_args();
    let suite = sprite_bench::experiments::suite();
    if opts.list {
        for exp in &suite {
            println!("{}  {}", exp.id, exp.desc);
        }
        return;
    }
    let selected = match select(suite, &opts.ids) {
        Ok(selected) => selected,
        Err(unknown) => {
            for id in unknown {
                eprintln!("unknown experiment id {id:?}; try `list`");
            }
            std::process::exit(2);
        }
    };

    let wall = Instant::now();
    let results = runner::run_suite(selected, opts.jobs);
    let total_wall = wall.elapsed().as_secs_f64();

    // The macrobench runs serially outside the suite (it is a data-plane
    // stress, not a reproduction table) with its own timing; the golden
    // stdout of a plain run is untouched.
    let macro_run = opts.macrobench.then(|| {
        let started = Instant::now();
        let report = m01::run();
        (report, started.elapsed().as_secs_f64())
    });

    // Like the macrobench, the per-op RPC breakdown runs a dedicated serial
    // drive (one E11 day) after the suite so the golden stdout of a plain
    // run stays untouched.
    let rpc_run = opts.rpc_table.then(|| e11::run(8, 1, e11::FULL_SEED));

    // The fault sweep is a pure function of (seed, rate) and runs serially
    // after the suite, so the golden stdout of a plain run stays untouched
    // and the appended block is identical for every --jobs value.
    let fault_run = opts.faults.map(|(seed, rate)| {
        let started = Instant::now();
        let report = f01::sweep(seed, rate);
        (report, started.elapsed().as_secs_f64())
    });

    // The determinism audit replays the audit drive twice — once across
    // the worker pool, once serially in-process — and compares the digest
    // streams. Its stdout block depends only on the seeded replications,
    // never on --jobs, so the CI gate can diff it across thread counts.
    let audit_run = opts.audit.then(|| {
        let started = Instant::now();
        let outcome = audit::run(opts.jobs);
        (outcome, started.elapsed().as_secs_f64())
    });

    // The decentralization sweep runs after the suite; its cells fan out
    // over --jobs threads but results merge by canonical index, so the
    // appended stdout block is identical for every --jobs value.
    let sweep_run = opts.e10_sweep.as_ref().map(|sizes| {
        let started = Instant::now();
        let rows = e10::run_sweep(
            sizes,
            SimDuration::from_secs(e10::SWEEP_DURATION_SECS),
            e10::SWEEP_SEED,
            opts.jobs,
        );
        (rows, started.elapsed().as_secs_f64())
    });

    // The checkpoint-vs-migration crossover sweep runs after the suite;
    // every cell is a pure function of (mtbf, image, seed), fanned over
    // --jobs threads and merged by index, so the appended stdout block is
    // identical for every --jobs and --shards value.
    let f02_run = opts.f02.as_ref().map(|(mtbfs, mbs)| {
        let started = Instant::now();
        let cells = f02::run_grid(mtbfs, mbs, f02::SEED, opts.jobs);
        (cells, started.elapsed().as_secs_f64())
    });

    // The partitioned-parallel macrobench drives the sharded cluster
    // workload serial and sharded and compares digest streams. Its stdout
    // block is partition-invariant so the CI gate can diff it across
    // --shards values; partition-dependent numbers go to stderr/JSON.
    let m02_run = opts.m02.map(|params| {
        let started = Instant::now();
        let report = m02::run(params, opts.shards);
        (report, started.elapsed().as_secs_f64())
    });

    let mut out = runner::render_suite(&results);
    let mut block = |table: &str, tag: &str| runner::push_block(&mut out, table, tag);
    if let Some((report, _)) = &macro_run {
        block(
            &m01::render(report),
            "m01: cluster-scale data-plane macrobench",
        );
    }
    if let Some(report) = &rpc_run {
        let title = "Per-op RPC traffic (serial drive: E11 month, 8 hosts x 1 day)";
        block(
            &rpc_table_text(title, &report.rpc),
            &format!(
                "rpc-table: NetStats saw {} messages / {} bytes",
                report.net_messages, report.net_bytes
            ),
        );
    }
    if let Some((report, _)) = &fault_run {
        block(&f01::render(report), "f01: fault-injection sweep");
        let title = "Per-op fault events (merged across the sweep)";
        block(
            &fault_table_text(title, &report.faults),
            &format!(
                "fault-table: {} drops, {} retries, {} giveups",
                report.faults.total_drops(),
                report.faults.total_retries(),
                report.faults.total_giveups()
            ),
        );
    }
    if let Some((outcome, _)) = &audit_run {
        block(
            &audit::render(outcome),
            &format!(
                "audit: {} checkpoints across {} replications",
                audit::total_checkpoints(&outcome.streams),
                outcome.streams.len()
            ),
        );
    }
    if let Some((rows, _)) = &sweep_run {
        block(
            &e10::render_sweep(rows),
            "e10-sweep: decentralized host selection at scale",
        );
    }
    if let Some((cells, _)) = &f02_run {
        let mbs = &opts.f02.as_ref().expect("f02 ran").1;
        block(
            &f02::render(cells, mbs, f02::SEED),
            "f02: checkpoint/restart vs live migration crossover",
        );
    }
    if let Some((report, _)) = &m02_run {
        let checkpoints = report.serial.audit.len();
        block(
            &m02::render(report),
            &format!("m02: {checkpoints} digest checkpoints, serial vs sharded"),
        );
    }
    print!("{out}");
    for r in &results {
        eprintln!(
            "[timing] {}: {:.2}s cpu across {} unit{}",
            r.id,
            r.cpu.as_secs_f64(),
            r.units,
            if r.units == 1 { "" } else { "s" }
        );
    }
    eprintln!(
        "[timing] total: {total_wall:.2}s wall with {} job{}",
        opts.jobs,
        if opts.jobs == 1 { "" } else { "s" }
    );
    if let Some((report, macro_wall)) = &macro_run {
        eprintln!(
            "[timing] m01: {macro_wall:.2}s wall serial at {} hosts",
            report.hosts
        );
    }
    if let Some((report, fault_wall)) = &fault_run {
        eprintln!(
            "[timing] f01: {fault_wall:.2}s wall serial across {} rates (seed {})",
            report.rows.len(),
            report.seed
        );
    }
    if let Some((outcome, audit_wall)) = &audit_run {
        eprintln!(
            "[timing] audit: {audit_wall:.2}s wall over {} replications ({} jobs + serial reference)",
            outcome.streams.len(),
            opts.jobs
        );
    }
    if let Some((rows, sweep_wall)) = &sweep_run {
        eprintln!(
            "[timing] e10-sweep: {sweep_wall:.2}s wall over {} cells with {} job{}",
            rows.len(),
            opts.jobs,
            if opts.jobs == 1 { "" } else { "s" }
        );
    }
    if let Some((cells, f02_wall)) = &f02_run {
        eprintln!(
            "[timing] f02: {f02_wall:.2}s wall over {} cells with {} job{}",
            cells.len(),
            opts.jobs,
            if opts.jobs == 1 { "" } else { "s" }
        );
    }
    if let Some((r, m02_wall)) = &m02_run {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        eprintln!(
            "[timing] m02: {m02_wall:.2}s wall total; serial {:.2}s, sharded {:.2}s \
             ({} shards on {} workers, {cores} cores), speedup {:.2}x",
            r.serial.wall_seconds,
            r.sharded.wall_seconds,
            r.sharded.shards,
            r.sharded.workers,
            r.serial.wall_seconds / r.sharded.wall_seconds.max(1e-9),
        );
        eprintln!(
            "[timing] m02: wall per simulated day: serial {:.3}s, sharded {:.3}s; \
             serial {:.0} ns and {:.2} key comparisons per event",
            r.serial.wall_seconds / r.params.days as f64,
            r.sharded.wall_seconds / r.params.days as f64,
            r.serial.ns_per_event(),
            r.serial.keys_compared_per_event(),
        );
        eprintln!(
            "[counters] m02: {} cross-shard of {} messages, barrier stall {:.3}s across {} workers ({})",
            r.sharded.cross_messages,
            r.sharded.messages,
            m02::total_stall_ns(&r.sharded) as f64 / 1e9,
            r.sharded.workers,
            r.sharded
                .worker_stalls
                .iter()
                .map(m02::worker_split)
                .collect::<Vec<_>>()
                .join(", "),
        );
        for s in &r.sharded.shard_counters {
            eprintln!(
                "[counters] m02 shard {}: {} cells, {} events, {} timers, {} sent, {} in",
                s.shard, s.cells, s.events, s.timers_set, s.messages_sent, s.messages_in
            );
        }
        if !r.digest_match {
            eprintln!("m02 FAILED: sharded digest stream diverged from serial");
        }
    }
    eprintln!(
        "[counters] interned paths: {}, hash probes: {}",
        SpritePath::interned_count(),
        runner::hash_probes_total()
    );
    if let Some((report, _)) = &macro_run {
        eprintln!(
            "[counters] m01 slabs: pcb high-water {}, stream high-water {}, stale lookups {}",
            report.proc_slab_high_water, report.stream_slab_high_water, report.stale_handle_lookups
        );
    }

    if opts.json {
        let mut json = String::from("{\n");
        json.push_str(&format!("  \"jobs\": {},\n", opts.jobs));
        json.push_str(&format!("  \"total_wall_seconds\": {total_wall:.3},\n"));
        json.push_str("  \"experiments\": [\n");
        for (i, r) in results.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"id\": \"{}\", \"description\": \"{}\", \"units\": {}, \"cpu_seconds\": {:.3}}}{}\n",
                json_escape(r.id),
                json_escape(r.desc),
                r.units,
                r.cpu.as_secs_f64(),
                if i + 1 == results.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]");
        if let Some((r, macro_wall)) = &macro_run {
            json.push_str(",\n  \"macrobench\": {\n");
            json.push_str("    \"id\": \"m01\",\n");
            json.push_str(
                "    \"description\": \"cluster-scale data-plane macrobench (month + 100 simulations)\",\n",
            );
            json.push_str(&format!("    \"hosts\": {},\n", r.hosts));
            json.push_str(&format!("    \"wall_seconds\": {macro_wall:.3},\n"));
            json.push_str(&format!(
                "    \"proc_slab_high_water\": {},\n",
                r.proc_slab_high_water
            ));
            json.push_str(&format!(
                "    \"stream_slab_high_water\": {},\n",
                r.stream_slab_high_water
            ));
            json.push_str(&format!(
                "    \"stale_handle_lookups\": {},\n",
                r.stale_handle_lookups
            ));
            json.push_str(&format!(
                "    \"interned_paths\": {},\n",
                SpritePath::interned_count()
            ));
            json.push_str(&format!(
                "    \"hash_probes\": {},\n",
                runner::hash_probes_total()
            ));
            json.push_str(&format!(
                "    \"rpc_total_messages\": {},\n",
                r.rpc.total_messages()
            ));
            json.push_str(&format!(
                "    \"rpc_total_bytes\": {},\n",
                r.rpc.total_bytes()
            ));
            json.push_str(&format!("    \"net_messages\": {},\n", r.net_messages));
            json.push_str(&format!("    \"net_bytes\": {},\n", r.net_bytes));
            json.push_str(&format!(
                "    \"hostsel_requests\": {},\n",
                r.hostsel_requests
            ));
            json.push_str(&format!(
                "    \"hostsel_select_mean_ms\": {:.3},\n",
                r.hostsel_select_mean_ms
            ));
            json.push_str(&format!("    \"hostsel_bytes\": {},\n", r.hostsel_bytes));
            json.push_str(&format!("    \"fs_shards\": {},\n", r.fs_shards));
            json.push_str(&format!(
                "    \"fs_replica_hits\": {},\n",
                r.fs_replica_hits
            ));
            json.push_str(&format!(
                "    \"fs_server_busy_max_seconds\": {:.3},\n",
                r.fs_server_busy_max.as_secs_f64()
            ));
            json.push_str("    \"rpc_table\": [\n");
            let rows: Vec<_> = r.rpc.rows().collect();
            for (i, (op, row)) in rows.iter().enumerate() {
                json.push_str(&format!(
                    "      {{\"op\": \"{}\", \"calls\": {}, \"messages\": {}, \"bytes\": {}, \"mean_rtt_ms\": {:.3}}}{}\n",
                    op.label(),
                    row.calls,
                    row.messages,
                    row.bytes,
                    row.rtt.mean() * 1e3,
                    if i + 1 == rows.len() { "" } else { "," }
                ));
            }
            json.push_str("    ]\n");
            json.push_str("  }");
        }
        if let Some((r, fault_wall)) = &fault_run {
            json.push_str(",\n  \"faults\": {\n");
            json.push_str("    \"id\": \"f01\",\n");
            json.push_str("    \"description\": \"fault-injection sweep: migration outcomes vs drop rate\",\n");
            json.push_str(&format!("    \"seed\": {},\n", r.seed));
            json.push_str(&format!("    \"wall_seconds\": {fault_wall:.3},\n"));
            json.push_str("    \"rows\": [\n");
            for (i, row) in r.rows.iter().enumerate() {
                json.push_str(&format!(
                    "      {{\"rate\": {:.6}, \"attempts\": {}, \"completed\": {}, \"aborts\": {}, \"failures\": {}, \"drops\": {}, \"retries\": {}, \"giveups\": {}, \"crash_kills\": {}, \"survivors\": {}}}{}\n",
                    row.rate,
                    row.attempts,
                    row.completed,
                    row.aborts,
                    row.failures,
                    row.drops,
                    row.retries,
                    row.giveups,
                    row.fault_kills,
                    row.survivors,
                    if i + 1 == r.rows.len() { "" } else { "," }
                ));
            }
            json.push_str("    ],\n");
            json.push_str("    \"fault_table\": [\n");
            let rows: Vec<_> = r.faults.rows().collect();
            for (i, (op, row)) in rows.iter().enumerate() {
                json.push_str(&format!(
                    "      {{\"op\": \"{}\", \"drops\": {}, \"partitions\": {}, \"crashes\": {}, \"retries\": {}, \"giveups\": {}}}{}\n",
                    op.label(),
                    row.drops,
                    row.partitions,
                    row.crashes,
                    row.retries,
                    row.giveups,
                    if i + 1 == rows.len() { "" } else { "," }
                ));
            }
            json.push_str("    ]\n");
            json.push_str("  }");
        }
        if let Some((outcome, audit_wall)) = &audit_run {
            json.push_str(",\n  \"audit\": {\n");
            json.push_str(
                "    \"description\": \"state-digest determinism audit (threaded vs serial)\",\n",
            );
            json.push_str(&format!("    \"hosts\": {},\n", outcome.hosts));
            json.push_str(&format!("    \"days\": {},\n", outcome.days));
            json.push_str(&format!(
                "    \"replications\": {},\n",
                outcome.streams.len()
            ));
            json.push_str(&format!(
                "    \"checkpoint_every_events\": {},\n",
                outcome.every
            ));
            json.push_str(&format!(
                "    \"checkpoints\": {},\n",
                audit::total_checkpoints(&outcome.streams)
            ));
            json.push_str(&format!("    \"wall_seconds\": {audit_wall:.3},\n"));
            json.push_str(&format!(
                "    \"divergent\": {}\n",
                outcome.divergence.is_some()
            ));
            json.push_str("  }");
        }
        if let Some((rows, sweep_wall)) = &sweep_run {
            json.push_str(",\n  \"e10_sweep\": {\n");
            json.push_str(
                "    \"description\": \"decentralized host selection at scale: central vs sharded vs gossip\",\n",
            );
            json.push_str(&format!(
                "    \"duration_secs\": {},\n",
                e10::SWEEP_DURATION_SECS
            ));
            json.push_str(&format!("    \"seed\": {},\n", e10::SWEEP_SEED));
            json.push_str(&format!("    \"wall_seconds\": {sweep_wall:.3},\n"));
            json.push_str("    \"rows\": [\n");
            for (i, r) in rows.iter().enumerate() {
                json.push_str(&format!(
                    "      {{\"architecture\": \"{}\", \"hosts\": {}, \"requests\": {}, \"grant_rate\": {:.4}, \"conflicts_per_request\": {:.4}, \"staleness_s\": {:.3}, \"quality_pct\": {:.1}, \"mean_latency_ms\": {:.4}, \"messages_per_request\": {:.2}, \"wire_bytes\": {}}}{}\n",
                    r.name,
                    r.hosts,
                    r.requests,
                    r.grant_rate,
                    r.conflicts_per_request,
                    r.staleness_s,
                    r.quality_pct,
                    r.mean_latency_ms,
                    r.messages_per_request,
                    r.wire_bytes,
                    if i + 1 == rows.len() { "" } else { "," }
                ));
            }
            json.push_str("    ]\n");
            json.push_str("  }");
        }
        if let Some((r, m02_wall)) = &m02_run {
            let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
            json.push_str(",\n  \"m02\": {\n");
            json.push_str(
                "    \"description\": \"partitioned-parallel determinism macrobench (sharded month)\",\n",
            );
            json.push_str(&format!("    \"hosts\": {},\n", r.params.hosts));
            json.push_str(&format!("    \"days\": {},\n", r.params.days));
            json.push_str(&format!("    \"seed\": {},\n", m02::FULL_SEED));
            json.push_str(&format!("    \"shards\": {},\n", r.sharded.shards));
            json.push_str(&format!("    \"workers\": {},\n", r.sharded.workers));
            json.push_str(&format!("    \"cores\": {cores},\n"));
            json.push_str(&format!("    \"wall_seconds\": {m02_wall:.3},\n"));
            json.push_str(&format!(
                "    \"serial_wall_seconds\": {:.3},\n",
                r.serial.wall_seconds
            ));
            json.push_str(&format!(
                "    \"sharded_wall_seconds\": {:.3},\n",
                r.sharded.wall_seconds
            ));
            json.push_str(&format!(
                "    \"serial_wall_per_sim_day_seconds\": {:.4},\n",
                r.serial.wall_seconds / r.params.days as f64
            ));
            json.push_str(&format!(
                "    \"sharded_wall_per_sim_day_seconds\": {:.4},\n",
                r.sharded.wall_seconds / r.params.days as f64
            ));
            json.push_str(&format!(
                "    \"speedup\": {:.3},\n",
                r.serial.wall_seconds / r.sharded.wall_seconds.max(1e-9)
            ));
            json.push_str(&format!(
                "    \"serial_ns_per_event\": {:.1},\n",
                r.serial.ns_per_event()
            ));
            json.push_str(&format!(
                "    \"serial_keys_compared_per_event\": {:.3},\n",
                r.serial.keys_compared_per_event()
            ));
            json.push_str(&format!("    \"windows\": {},\n", r.serial.windows));
            json.push_str(&format!("    \"events\": {},\n", r.serial.events));
            json.push_str(&format!("    \"messages\": {},\n", r.serial.messages));
            json.push_str(&format!(
                "    \"cross_shard_messages\": {},\n",
                r.sharded.cross_messages
            ));
            json.push_str(&format!(
                "    \"barrier_stall_seconds\": {:.3},\n",
                m02::total_stall_ns(&r.sharded) as f64 / 1e9
            ));
            json.push_str(&format!(
                "    \"jobs_spawned\": {},\n",
                r.serial.jobs.spawned
            ));
            json.push_str(&format!(
                "    \"jobs_completed\": {},\n",
                r.serial.jobs.completed
            ));
            json.push_str(&format!(
                "    \"jobs_migrated\": {},\n",
                r.serial.jobs.migrated
            ));
            json.push_str(&format!(
                "    \"jobs_evicted\": {},\n",
                r.serial.jobs.evicted
            ));
            json.push_str(&format!(
                "    \"digest_checkpoints\": {},\n",
                r.serial.audit.len()
            ));
            json.push_str(&format!(
                "    \"digest_stream\": \"{:016x}\",\n",
                m02::stream_digest(&r.serial.audit)
            ));
            json.push_str(&format!("    \"digest_match\": {},\n", r.digest_match));
            json.push_str("    \"shard_counters\": [\n");
            for (i, s) in r.sharded.shard_counters.iter().enumerate() {
                json.push_str(&format!(
                    "      {{\"shard\": {}, \"cells\": {}, \"events\": {}, \"timers_set\": {}, \"messages_sent\": {}, \"messages_in\": {}}}{}\n",
                    s.shard,
                    s.cells,
                    s.events,
                    s.timers_set,
                    s.messages_sent,
                    s.messages_in,
                    if i + 1 == r.sharded.shard_counters.len() { "" } else { "," }
                ));
            }
            json.push_str("    ],\n");
            json.push_str("    \"worker_stalls\": [\n");
            for (i, w) in r.sharded.worker_stalls.iter().enumerate() {
                json.push_str(&format!(
                    "      {{\"worker\": {}, \"execute_ns\": {}, \"merge_ns\": {}, \"stall_ns\": {}}}{}\n",
                    w.worker,
                    w.execute_ns,
                    w.merge_ns,
                    w.stall_ns,
                    if i + 1 == r.sharded.worker_stalls.len() {
                        ""
                    } else {
                        ","
                    }
                ));
            }
            json.push_str("    ]\n");
            json.push_str("  }");
        }
        json.push_str("\n}\n");
        let path = "BENCH_experiments.json";
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[timing] wrote {path}");
    }

    if let Some((outcome, _)) = &audit_run {
        if let Some(d) = &outcome.divergence {
            eprintln!(
                "audit FAILED: replication {} diverged in event window ({}, {}]",
                d.rep, d.start_events, d.end_events
            );
            std::process::exit(1);
        }
    }
    if let Some((r, _)) = &m02_run {
        if !r.digest_match {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::select;

    fn ids(ids: &[&str]) -> Vec<String> {
        ids.iter().map(|id| id.to_string()).collect()
    }

    #[test]
    fn an_unknown_id_fails_the_selection_instead_of_being_dropped() {
        let suite = sprite_bench::experiments::suite;
        let unknown = select(suite(), &ids(&["e01", "e5", "m01"])).err();
        assert_eq!(unknown, Some(ids(&["e5", "m01"])));
        let picked = select(suite(), &ids(&["e05", "e01"])).expect("known ids");
        assert_eq!(
            picked.iter().map(|exp| exp.id).collect::<Vec<_>>(),
            ["e01", "e05"]
        );
        assert_eq!(
            select(suite(), &[]).expect("whole suite").len(),
            suite().len()
        );
    }
}
