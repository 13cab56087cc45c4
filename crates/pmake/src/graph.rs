//! Dependency graphs and out-of-date analysis.
//!
//! pmake, "like make \[Fel79\], generates a dependency graph from its input
//! specification, determines which files are out-of-date, and recreates
//! each out-of-date file. Unlike make, it can find disjoint dependency
//! subgraphs and recreate independent targets in parallel" (Ch. 7.4.1).
//! This module is that engine: targets, dependencies, readiness, and
//! timestamp-based out-of-date analysis.

use sprite_sim::{DetHashMap, DetHashSet};

use sprite_sim::{SimDuration, SimTime};
use sprite_workloads::{CompileJob, CompileWorkload};

/// What building a target does.
#[derive(Debug, Clone)]
pub enum Action {
    /// Compile one source file into an object file.
    Compile(CompileJob),
    /// Link every input into the final program (the sequential tail that
    /// Amdahl's law says will dominate at high parallelism \[Amd67\]).
    Link {
        /// CPU demand of the link step.
        cpu: SimDuration,
        /// Object files consumed.
        inputs: Vec<String>,
        /// Output binary.
        output: String,
    },
    /// A grouping target with no work of its own.
    Phony,
}

/// One node in the dependency graph.
#[derive(Debug, Clone)]
pub struct Target {
    /// Target name (usually the file it produces).
    pub name: String,
    /// Indices of targets that must build first.
    pub deps: Vec<usize>,
    /// The work.
    pub action: Action,
}

/// A build's dependency graph.
///
/// # Examples
///
/// ```
/// use sprite_pmake::{Action, DepGraph};
/// use sprite_sim::SimDuration;
///
/// let mut g = DepGraph::new();
/// let a = g.add_target("a.o", Action::Phony, &[]);
/// let b = g.add_target("b.o", Action::Phony, &[]);
/// g.add_target(
///     "prog",
///     Action::Link {
///         cpu: SimDuration::from_secs(5),
///         inputs: vec!["a.o".into(), "b.o".into()],
///         output: "prog".into(),
///     },
///     &[a, b],
/// );
/// let done = Default::default();
/// assert_eq!(g.ready(&done), vec![a, b]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    targets: Vec<Target>,
    by_name: DetHashMap<String, usize>,
}

impl DepGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DepGraph::default()
    }

    /// Adds a target. Returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the name already exists or a dependency index is bogus.
    pub fn add_target(&mut self, name: &str, action: Action, deps: &[usize]) -> usize {
        assert!(!self.by_name.contains_key(name), "duplicate target {name}");
        for &d in deps {
            assert!(d < self.targets.len(), "dependency index {d} out of range");
        }
        let idx = self.targets.len();
        self.targets.push(Target {
            name: name.to_owned(),
            deps: deps.to_vec(),
            action,
        });
        self.by_name.insert(name.to_owned(), idx);
        idx
    }

    /// Number of targets.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True if the graph has no targets.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Looks a target up by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// A target by index.
    pub fn target(&self, idx: usize) -> &Target {
        &self.targets[idx]
    }

    /// Targets whose dependencies are all in `done`, excluding `done` ones,
    /// in index order (deterministic scheduling). This scans the whole
    /// graph; [`run_build`](crate::run_build) readies targets by count
    /// instead, in the same order.
    pub fn ready(&self, done: &DetHashSet<usize>) -> Vec<usize> {
        self.targets
            .iter()
            .enumerate()
            .filter(|(i, t)| !done.contains(i) && t.deps.iter().all(|d| done.contains(d)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Out-of-date analysis: a target is out of date if it has no recorded
    /// build time or any dependency was built after it. `built` maps target
    /// index to its last build completion.
    pub(crate) fn out_of_date(&self, built: &DetHashMap<usize, SimTime>) -> DetHashSet<usize> {
        let mut stale = DetHashSet::default();
        // Index order is topological-enough because add order must respect
        // dependencies (enforced by add_target's index check).
        for (i, t) in self.targets.iter().enumerate() {
            let my_time = built.get(&i);
            let dep_stale = t.deps.iter().any(|d| stale.contains(d));
            let dep_newer = my_time.is_some_and(|mt| {
                t.deps
                    .iter()
                    .any(|d| built.get(d).is_some_and(|dt| dt > mt))
            });
            if my_time.is_none() || dep_stale || dep_newer {
                stale.insert(i);
            }
        }
        stale
    }

    /// The incremental-rebuild view: a new graph containing only the
    /// targets that are out of date with respect to `built`, with
    /// dependencies on up-to-date targets dropped (they are already
    /// satisfied on disk). This is what pmake actually executes when you
    /// touch one source file and type `pmake` again.
    pub fn stale_subgraph(&self, built: &DetHashMap<usize, SimTime>) -> DepGraph {
        let stale = self.out_of_date(built);
        let mut sub = DepGraph::new();
        let mut remap: DetHashMap<usize, usize> = DetHashMap::default();
        for (i, t) in self.targets.iter().enumerate() {
            if !stale.contains(&i) {
                continue;
            }
            let deps: Vec<usize> = t
                .deps
                .iter()
                .filter_map(|d| remap.get(d).copied())
                .collect();
            let new_idx = sub.add_target(&t.name, t.action.clone(), &deps);
            remap.insert(i, new_idx);
        }
        sub
    }

    /// Builds the standard two-level compile-then-link graph from a
    /// workload's jobs, which the compile targets take over.
    pub(crate) fn from_compile_jobs(jobs: Vec<CompileJob>, link_cpu: SimDuration) -> Self {
        let mut g = DepGraph::new();
        let mut objs = Vec::with_capacity(jobs.len());
        let mut inputs = Vec::with_capacity(jobs.len());
        for j in jobs {
            let obj = j.obj.clone();
            objs.push(g.add_target(&obj, Action::Compile(j), &[]));
            inputs.push(obj);
        }
        g.add_target(
            "/src/prog",
            Action::Link {
                cpu: link_cpu,
                inputs,
                output: "/src/prog".to_owned(),
            },
            &objs,
        );
        g
    }

    /// Convenience: graph straight from a workload description.
    pub fn from_workload(w: &CompileWorkload, rng: &mut sprite_sim::DetRng) -> Self {
        Self::from_compile_jobs(w.jobs(rng), w.link_cpu)
    }
}

/// Count-based readiness for one build: each target's number of unbuilt
/// dependencies and the targets that depend on it, built once. A
/// completion readies exactly the dependents whose count reaches zero, in
/// index order — the targets [`DepGraph::ready`] would newly list, in its
/// order, without a scan of the graph.
#[derive(Debug)]
pub(crate) struct Readiness {
    /// Unbuilt dependencies per target, a repeated dependency counted once
    /// per mention.
    unmet: Vec<usize>,
    /// Per target, the targets that list it as a dependency, in index
    /// order (once per mention).
    dependents: Vec<Vec<usize>>,
}

impl Readiness {
    pub(crate) fn new(graph: &DepGraph) -> Self {
        let mut unmet = Vec::with_capacity(graph.len());
        let mut dependents = vec![Vec::new(); graph.len()];
        for (i, t) in graph.targets.iter().enumerate() {
            unmet.push(t.deps.len());
            for &d in &t.deps {
                dependents[d].push(i);
            }
        }
        Readiness { unmet, dependents }
    }

    /// Targets with no dependencies, in index order.
    pub(crate) fn initial(&self) -> impl Iterator<Item = usize> + '_ {
        self.unmet
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n == 0)
            .map(|(i, _)| i)
    }

    /// Records that `target` was built and appends the targets it readied
    /// to `ready`, in index order.
    pub(crate) fn complete(&mut self, target: usize, ready: &mut Vec<usize>) {
        for &d in &self.dependents[target] {
            self.unmet[d] -= 1;
            if self.unmet[d] == 0 {
                ready.push(d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_sim::DetRng;

    fn phony(g: &mut DepGraph, name: &str, deps: &[usize]) -> usize {
        g.add_target(name, Action::Phony, deps)
    }

    #[test]
    fn readiness_respects_dependencies() {
        let mut g = DepGraph::new();
        let a = phony(&mut g, "a", &[]);
        let b = phony(&mut g, "b", &[a]);
        let c = phony(&mut g, "c", &[a]);
        let d = phony(&mut g, "d", &[b, c]);
        let mut done = DetHashSet::default();
        assert_eq!(g.ready(&done), vec![a]);
        done.insert(a);
        assert_eq!(g.ready(&done), vec![b, c]);
        done.insert(b);
        assert_eq!(g.ready(&done), vec![c]);
        done.insert(c);
        assert_eq!(g.ready(&done), vec![d]);
        done.insert(d);
        assert!(g.ready(&done).is_empty());
    }

    #[test]
    fn out_of_date_analysis() {
        let mut g = DepGraph::new();
        let src = phony(&mut g, "src", &[]);
        let obj = phony(&mut g, "obj", &[src]);
        let prog = phony(&mut g, "prog", &[obj]);
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        // Never built: everything stale.
        assert_eq!(g.out_of_date(&DetHashMap::default()).len(), 3);
        // Fully up-to-date build: nothing stale.
        let built: DetHashMap<usize, SimTime> = [(src, t(1)), (obj, t(2)), (prog, t(3))]
            .into_iter()
            .collect();
        assert!(g.out_of_date(&built).is_empty());
        // Touch the source: everything downstream is stale.
        let built: DetHashMap<usize, SimTime> = [(src, t(10)), (obj, t(2)), (prog, t(3))]
            .into_iter()
            .collect();
        let stale = g.out_of_date(&built);
        assert!(!stale.contains(&src));
        assert!(stale.contains(&obj));
        assert!(stale.contains(&prog));
    }

    #[test]
    fn compile_graph_has_link_barrier() {
        let mut rng = DetRng::seed_from(3);
        let w = CompileWorkload {
            files: 6,
            ..CompileWorkload::default()
        };
        let g = DepGraph::from_workload(&w, &mut rng);
        assert_eq!(g.len(), 7);
        let done = DetHashSet::default();
        assert_eq!(g.ready(&done).len(), 6, "all compiles independent");
        let link = g.index_of("/src/prog").unwrap();
        let all_objs: DetHashSet<usize> = (0..6).collect();
        assert_eq!(g.ready(&all_objs), vec![link]);
        match &g.target(link).action {
            Action::Link { inputs, .. } => assert_eq!(inputs.len(), 6),
            other => panic!("link target has wrong action {other:?}"),
        }
    }

    #[test]
    fn stale_subgraph_rebuilds_only_whats_needed() {
        let mut g = DepGraph::new();
        let s1 = phony(&mut g, "a.c", &[]);
        let s2 = phony(&mut g, "b.c", &[]);
        let o1 = phony(&mut g, "a.o", &[s1]);
        let o2 = phony(&mut g, "b.o", &[s2]);
        let prog = phony(&mut g, "prog", &[o1, o2]);
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        // Everything built at time 1-5, then a.c touched at time 10.
        let built: DetHashMap<usize, SimTime> = [
            (s1, t(10)),
            (s2, t(1)),
            (o1, t(2)),
            (o2, t(3)),
            (prog, t(5)),
        ]
        .into_iter()
        .collect();
        let sub = g.stale_subgraph(&built);
        // Only a.o and prog rebuild; b.o and the sources do not.
        assert_eq!(sub.len(), 2);
        let a_o = sub.index_of("a.o").expect("a.o is stale");
        let p = sub.index_of("prog").expect("prog is stale");
        assert!(sub.index_of("b.o").is_none());
        // prog depends on the rebuilt a.o but not on the satisfied b.o.
        assert_eq!(sub.target(p).deps, vec![a_o]);
        assert!(sub.target(a_o).deps.is_empty(), "a.c is up to date");
        // First wave: just a.o.
        assert_eq!(sub.ready(&DetHashSet::default()), vec![a_o]);
    }

    #[test]
    fn stale_subgraph_of_clean_build_is_empty() {
        let mut g = DepGraph::new();
        let a = phony(&mut g, "x", &[]);
        let b = phony(&mut g, "y", &[a]);
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        let built: DetHashMap<usize, SimTime> = [(a, t(1)), (b, t(2))].into_iter().collect();
        assert!(g.stale_subgraph(&built).is_empty());
    }

    /// A random multi-level DAG: each target depends on up to four earlier
    /// ones, sometimes the same one twice, so chains, diamonds, wide
    /// fan-ins and fan-outs all occur.
    fn random_dag(rng: &mut DetRng, n: usize) -> DepGraph {
        let mut g = DepGraph::new();
        for i in 0..n {
            let fan_in = if i == 0 { 0 } else { rng.uniform_u64(5) };
            let deps: Vec<usize> = (0..fan_in).map(|_| rng.pick_index(i)).collect();
            phony(&mut g, &format!("t{i}"), &deps);
        }
        g
    }

    #[test]
    fn count_based_readiness_matches_rescanning_the_graph() {
        for seed in 0..300 {
            let mut rng = DetRng::seed_from(seed);
            let n = 1 + rng.pick_index(60);
            let g = random_dag(&mut rng, n);
            let mut readiness = Readiness::new(&g);
            let mut done = DetHashSet::default();
            let mut started: Vec<usize> = readiness.initial().collect();
            assert_eq!(started, g.ready(&done), "seed {seed}: first wave");
            // Launched targets finish in a random order; each completion
            // must ready exactly what a rescan newly lists, in its order.
            let mut running = started.clone();
            while !running.is_empty() {
                let tgt = running.swap_remove(rng.pick_index(running.len()));
                done.insert(tgt);
                let mut got = Vec::new();
                readiness.complete(tgt, &mut got);
                let want: Vec<usize> = g
                    .ready(&done)
                    .into_iter()
                    .filter(|t| !started.contains(t))
                    .collect();
                assert_eq!(got, want, "seed {seed}: after target {tgt} finished");
                started.extend(&got);
                running.extend(&got);
            }
            assert_eq!(done.len(), n, "seed {seed}: every target built");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate target")]
    fn duplicate_names_rejected() {
        let mut g = DepGraph::new();
        phony(&mut g, "x", &[]);
        phony(&mut g, "x", &[]);
    }
}
