//! Job and process-lifetime models.
//!
//! Two workload facts drive the paper's policy conclusions:
//!
//! * Zhou's UNIX traces \[Zho87\] show process lifetimes with a mean of 1.5 s
//!   but a standard deviation of 19.1 s — almost all processes die young,
//!   so *placing* processes at exec time beats migrating them later unless
//!   migration is nearly free (Ch. 3).
//! * The applications that benefit from load sharing are coarse-grained:
//!   compilations (pmake) and parameter-sweep simulations, whose CPU
//!   demands dwarf their communication.

use sprite_sim::{DetRng, SimDuration};

/// Heavy-tailed process lifetimes calibrated to Zhou's statistics.
#[derive(Debug, Clone, Copy)]
pub struct LifetimeModel {
    /// Shortest process.
    pub min: SimDuration,
    /// Longest process (bounds the tail).
    pub max: SimDuration,
    /// Pareto tail index; close to 1 gives the enormous coefficient of
    /// variation the traces show.
    pub alpha: f64,
}

impl Default for LifetimeModel {
    fn default() -> Self {
        LifetimeModel {
            min: SimDuration::from_millis(200),
            max: SimDuration::from_secs(600),
            alpha: 1.08,
        }
    }
}

impl LifetimeModel {
    /// Draws one process lifetime.
    pub fn sample(&self, rng: &mut DetRng) -> SimDuration {
        rng.bounded_pareto(self.min, self.max, self.alpha)
    }
}

/// One compilation step in a pmake run: read the source and its headers,
/// burn CPU, write the object file.
///
/// The header list matters: every `open` is a name lookup at the file
/// server, and "name lookups are the greatest cause of contention for file
/// server processing" \[Nel88\] — it is header traffic, not data bytes, that
/// bends the parallel-compilation speedup curve.
#[derive(Debug, Clone)]
pub struct CompileJob {
    /// Source file path (read through the shared FS).
    pub src: String,
    /// Shared header files the compile also opens and reads.
    pub headers: Vec<String>,
    /// Object file path (written through the shared FS).
    pub obj: String,
    /// Source size in bytes.
    pub src_bytes: u64,
    /// Object size in bytes.
    pub obj_bytes: u64,
    /// Pure compute demand.
    pub cpu: SimDuration,
}

/// Parameters for generating a pmake-style source tree.
#[derive(Debug, Clone, Copy)]
pub struct CompileWorkload {
    /// Number of independent source files.
    pub files: usize,
    /// Mean CPU seconds per compilation.
    pub mean_cpu: SimDuration,
    /// Mean source size.
    pub mean_src_bytes: u64,
    /// Headers each compile includes (drawn from a shared pool).
    pub headers_per_file: usize,
    /// Size of the shared header pool.
    pub header_pool: usize,
    /// Time for the final sequential link step.
    pub link_cpu: SimDuration,
}

impl Default for CompileWorkload {
    /// Roughly a Sprite-era C compilation: ~10 s of Sun-3 CPU per file,
    /// ~30 KB sources, half a dozen shared headers per file, a few seconds
    /// of sequential link at the end. The link step is the Amdahl
    /// bottleneck; the header opens are the file-server bottleneck.
    fn default() -> Self {
        CompileWorkload {
            files: 24,
            mean_cpu: SimDuration::from_secs(10),
            mean_src_bytes: 30 * 1024,
            headers_per_file: 6,
            header_pool: 12,
            link_cpu: SimDuration::from_secs(6),
        }
    }
}

impl CompileWorkload {
    /// Path of the `i`-th shared header.
    pub(crate) fn header_path(i: usize) -> String {
        format!("/usr/include/sys/h{i}.h")
    }

    /// Generates the compile jobs, jittered around the means.
    pub fn jobs(&self, rng: &mut DetRng) -> Vec<CompileJob> {
        (0..self.files)
            .map(|i| {
                let cpu = rng.jittered(self.mean_cpu, self.mean_cpu * 0.15);
                let src_bytes =
                    (self.mean_src_bytes as f64 * (0.7 + 0.6 * rng.uniform_f64())) as u64;
                let headers = (0..self.headers_per_file)
                    .map(|k| Self::header_path((i + k * 5) % self.header_pool.max(1)))
                    .collect();
                CompileJob {
                    src: format!("/src/module{i}.c"),
                    headers,
                    obj: format!("/src/module{i}.o"),
                    src_bytes,
                    obj_bytes: src_bytes / 2,
                    cpu: cpu.max(SimDuration::from_secs(1)),
                }
            })
            .collect()
    }
}

/// An independent simulation job for the parameter-sweep workload (the one
/// that achieved ~800% effective utilization versus pmake's ~300%).
#[derive(Debug, Clone, Copy)]
pub struct SimulationJob {
    /// Distinguishes the sweep point.
    pub index: usize,
    /// Pure compute demand (minutes, not seconds — coarse grain).
    pub cpu: SimDuration,
    /// Result bytes written at the end.
    pub result_bytes: u64,
}

/// Generates `count` independent simulation jobs of roughly `mean_cpu` each.
pub fn simulation_batch(
    rng: &mut DetRng,
    count: usize,
    mean_cpu: SimDuration,
) -> Vec<SimulationJob> {
    (0..count)
        .map(|index| SimulationJob {
            index,
            cpu: rng
                .jittered(mean_cpu, mean_cpu * 0.1)
                .max(SimDuration::from_secs(5)),
            result_bytes: 16 * 1024,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetimes_match_zhou_statistics() {
        let model = LifetimeModel::default();
        let mut rng = DetRng::seed_from(11);
        let samples: Vec<f64> = (0..50_000)
            .map(|_| model.sample(&mut rng).as_secs_f64())
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / (samples.len() - 1) as f64;
        let sd = var.sqrt();
        let under_1s = samples.iter().filter(|&&x| x < 1.0).count() as f64 / samples.len() as f64;
        // Zhou: mean 1.5s, sd 19.1s, >78% below one second. We require the
        // same qualitative regime: short mean, sd an order of magnitude
        // larger, most processes sub-second.
        assert!((0.8..3.0).contains(&mean), "mean {mean}");
        assert!(sd > 5.0 * mean, "sd {sd} vs mean {mean}");
        assert!(under_1s > 0.70, "fraction under 1s = {under_1s}");
    }

    #[test]
    fn compile_workload_is_deterministic_per_seed() {
        let w = CompileWorkload::default();
        let a = w.jobs(&mut DetRng::seed_from(5));
        let b = w.jobs(&mut DetRng::seed_from(5));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cpu, y.cpu);
            assert_eq!(x.src, y.src);
            assert_eq!(x.src_bytes, y.src_bytes);
        }
    }

    #[test]
    fn compile_jobs_have_sane_shapes() {
        let w = CompileWorkload {
            files: 48,
            ..CompileWorkload::default()
        };
        let jobs = w.jobs(&mut DetRng::seed_from(6));
        assert_eq!(jobs.len(), 48);
        for j in &jobs {
            assert!(j.cpu >= SimDuration::from_secs(1));
            assert!(j.src_bytes > 0 && j.obj_bytes > 0);
            assert!(j.src.ends_with(".c") && j.obj.ends_with(".o"));
        }
        // Distinct paths.
        let set: sprite_sim::DetHashSet<_> = jobs.iter().map(|j| &j.src).collect();
        assert_eq!(set.len(), 48);
    }

    #[test]
    fn simulation_batch_is_coarse_grained() {
        let jobs = simulation_batch(&mut DetRng::seed_from(7), 100, SimDuration::from_secs(300));
        assert_eq!(jobs.len(), 100);
        let total: f64 = jobs.iter().map(|j| j.cpu.as_secs_f64()).sum();
        assert!((25_000.0..35_000.0).contains(&total), "total {total}");
    }
}
