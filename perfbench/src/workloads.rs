//! The four workloads. Each builds a pass's inputs from the run's seed
//! and the pass's number (`setup`, timed as `setup_s`), runs one timed
//! pass over the program's public entry points (`pass`, timed as
//! `cpu_s`), checks the pass's outputs
//! against the `reference` module (`check`, untimed), and in traced mode
//! times the layers under it directly (`probes`).

use crate::reference::{self, Leaflets};
use crate::trace::Tracer;
use crate::Metrics;
use mdtask::analysis::leaflet::{block_edges, block_edges_tree, LfApproach, LfConfig};
use mdtask::analysis::partition::{grid_for_tasks, plan_2d_grid};
use mdtask::analysis::psa::{PsaConfig, PsaOutput};
use mdtask::analysis::run::{run_lf, run_psa, run_workload, LfRun, RunConfig, Workload as Recipe};
use mdtask::cluster::{wrangler, Cluster, FaultPlan, RetryPolicy, SimExecutor, SimReport, Threads};
use mdtask::frame::{BagEngine, BagTask, Engine, EngineError, TaskCtx};
use mdtask::io::staging::StagingArea;
use mdtask::service::{JobRequest, Service, ServiceReport, TenantSpec};
use mdtask::sim::Trajectory;
use mdtask::sim::{lf_dataset, psa_ensemble, BilayerSpec, ChainSpec, LfDatasetId, PsaSize};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

pub trait Workload {
    /// Operations one pass attempts (the same in every pass).
    fn ops(&self) -> usize;
    /// Drop the inputs built by `setup` (untimed, before each repeat of
    /// it, so repeats neither raise the peak memory nor time a drop).
    fn drop_inputs(&mut self);
    /// Build the inputs of pass number `pass` of this run.
    fn setup(&mut self, pass: u64);
    /// Run one timed pass; returns how many operations failed.
    fn pass(&mut self, tr: &mut Tracer) -> usize;
    /// Check the last pass's outputs, then drop them.
    fn check(&mut self) -> Result<(), String>;
    /// Time the layers under the pass directly (traced mode only).
    fn probes(&mut self, tr: &mut Tracer, m: &mut Metrics);
}

pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    let seed = mix(seed);
    Some(match name {
        "psa-sweep" => Box::new(PsaSweep::new(seed)),
        "lf-sweep" => Box::new(LfSweep::new(seed)),
        "task-bag" => Box::new(TaskBag::default()),
        "service-burst" => Box::new(ServiceBurst::new(seed)),
        _ => return None,
    })
}

/// Every per-layer metric, with its unit. A workload that does not run a
/// layer reports it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mdsim.generate_s", "s"),
    ("linalg.hausdorff_s", "s"),
    ("linalg.rmsd_evals", "count"),
    ("linalg.hausdorff_naive_s", "s"),
    ("neighbors.tree_edges_s", "s"),
    ("linalg.cdist_edges_s", "s"),
    ("graphops.components_s", "s"),
    ("graphops.partials_s", "s"),
    ("lf.edges", "count"),
    ("sparklet.host_s", "s"),
    ("sparklet.tasks", "count"),
    ("sparklet.bytes_shuffled", "bytes"),
    ("sparklet.virtual_s", "s"),
    ("dasklet.host_s", "s"),
    ("dasklet.tasks", "count"),
    ("dasklet.bytes_broadcast", "bytes"),
    ("dasklet.virtual_s", "s"),
    ("pilot.host_s", "s"),
    ("pilot.tasks", "count"),
    ("pilot.bytes_staged", "bytes"),
    ("pilot.virtual_s", "s"),
    ("mpilike.host_s", "s"),
    ("mpilike.tasks", "count"),
    ("mpilike.bytes_broadcast", "bytes"),
    ("mpilike.virtual_s", "s"),
    ("netsim.bag_s", "s"),
    ("mdio.stage_s", "s"),
    ("mdtaskd.run_s", "s"),
    ("mdtaskd.measure_s", "s"),
    ("mdtaskd.control_s", "s"),
    ("mdtaskd.jobs", "count"),
    ("mdtaskd.retries", "count"),
    ("mdtaskd.peak_concurrent", "count"),
    ("mdtaskd.latency_p50_vs", "s"),
    ("mdtaskd.latency_p99_vs", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
];

/// SplitMix64 finaliser: spreads a small seed over all 64 bits.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of one pass's inputs. Each pass draws new inputs, so a run's
/// median pass does not rest on one draw: the work of the pruned
/// Hausdorff kernel, for one, differs by up to 15% between ensembles.
fn pass_seed(run_seed: u64, pass: u64) -> u64 {
    mix(run_seed ^ pass)
}

/// The crate an engine lives in, which names its per-layer metrics.
fn layer(engine: Engine) -> &'static str {
    match engine {
        Engine::Spark => "sparklet",
        Engine::Dask => "dasklet",
        Engine::Pilot => "pilot",
        Engine::Mpi => "mpilike",
    }
}

/// Add one engine run's report to that engine's pass sums.
fn count_report(tr: &mut Tracer, engine: Engine, r: &SimReport) {
    let l = layer(engine);
    tr.count(&format!("{l}.tasks"), "count", r.tasks as f64);
    tr.count(&format!("{l}.virtual_s"), "s", r.makespan_s);
    let (name, bytes) = match engine {
        Engine::Spark => ("bytes_shuffled", r.bytes_shuffled),
        Engine::Pilot => ("bytes_staged", r.bytes_staged),
        Engine::Dask | Engine::Mpi => ("bytes_broadcast", r.bytes_broadcast),
    };
    tr.count(&format!("{l}.{name}"), "bytes", bytes as f64);
}

/// A configured run on `cores` simulated Wrangler cores, one host thread.
fn config(engine: Engine, cores: usize) -> RunConfig {
    RunConfig::new(Cluster::with_cores(wrangler(), cores), engine)
        .mpi_world(cores)
        .threads(Threads::Serial)
}

/// Time `f` once, in a span, as the sample `metric`.
fn probe<T>(tr: &mut Tracer, m: &mut Metrics, metric: &str, f: impl FnOnce() -> T) -> T {
    let span = tr.open(&format!("probe.{metric}"));
    let t = Instant::now();
    let out = f();
    m.add(metric, "s", t.elapsed().as_secs_f64());
    tr.close(span);
    out
}

// ---------------------------------------------------------------- PSA

/// Fig. 4 on one size class: one ensemble on all four engines at 16, 64
/// and 256 cores. The Hausdorff kernel does nearly all the work, and the
/// same kernel work is repeated in each of the 12 runs.
struct PsaSweep {
    seed: u64,
    /// The seed of the current pass's inputs.
    input_seed: u64,
    ensemble: Option<Arc<Vec<Trajectory>>>,
    runs: Vec<(Engine, RunConfig, PsaConfig)>,
    outputs: Vec<Result<PsaOutput, EngineError>>,
}

const PSA_ENGINES: [Engine; 4] = [Engine::Spark, Engine::Dask, Engine::Pilot, Engine::Mpi];
const PSA_CORES: [usize; 3] = [16, 64, 256];
const PSA_TRAJECTORIES: usize = 16;
const PSA_ATOM_SCALE: usize = 64;

impl PsaSweep {
    fn new(seed: u64) -> Self {
        PsaSweep {
            seed,
            input_seed: seed,
            ensemble: None,
            runs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    fn generate(&self) -> Vec<Trajectory> {
        psa_ensemble(
            PsaSize::Small,
            PSA_TRAJECTORIES,
            PSA_ATOM_SCALE,
            self.input_seed,
        )
    }
}

impl Workload for PsaSweep {
    fn ops(&self) -> usize {
        PSA_ENGINES.len() * PSA_CORES.len()
    }

    fn drop_inputs(&mut self) {
        self.ensemble = None;
    }

    fn setup(&mut self, pass: u64) {
        self.input_seed = pass_seed(self.seed, pass);
        self.ensemble = Some(Arc::new(self.generate()));
        self.runs = PSA_ENGINES
            .iter()
            .flat_map(|&e| PSA_CORES.map(|c| (e, config(e, c), PsaConfig::for_cores(c))))
            .collect();
    }

    fn pass(&mut self, tr: &mut Tracer) -> usize {
        let ensemble = self.ensemble.as_ref().expect("setup ran");
        for (engine, rc, psa) in &self.runs {
            let l = layer(*engine);
            let out = tr.call(&format!("{l}.run_psa"), &format!("{l}.host_s"), || {
                run_psa(rc, Arc::clone(ensemble), psa)
            });
            if let Ok(o) = &out {
                count_report(tr, *engine, &o.report);
            }
            self.outputs.push(out);
        }
        self.outputs.iter().filter(|o| o.is_err()).count()
    }

    fn check(&mut self) -> Result<(), String> {
        let ensemble = self.ensemble.take().expect("setup ran");
        let want = reference::psa_matrix(&ensemble);
        let outputs = std::mem::take(&mut self.outputs);
        for ((engine, rc, _), out) in self.runs.drain(..).zip(&outputs) {
            if let Ok(o) = out {
                reference::check_psa(&o.distances, &want).map_err(|e| {
                    format!(
                        "psa {engine} at {} cores: {e}",
                        rc.cluster_ref().total_cores()
                    )
                })?;
            }
        }
        Ok(())
    }

    fn probes(&mut self, tr: &mut Tracer, m: &mut Metrics) {
        let ensemble = probe(tr, m, "mdsim.generate_s", || self.generate());
        let pairs = || {
            ensemble
                .iter()
                .flat_map(|a| ensemble.iter().map(move |b| (&a.frames, &b.frames)))
        };
        let evals = probe(tr, m, "linalg.hausdorff_s", || {
            pairs()
                .map(|(a, b)| mdtask::math::hausdorff_rmsd_pruned_evals(a, b).1)
                .sum::<u64>()
        });
        m.add("linalg.rmsd_evals", "count", evals as f64);
        probe(tr, m, "linalg.hausdorff_naive_s", || {
            pairs()
                .map(|(a, b)| mdtask::math::hausdorff_naive(a, b, mdtask::math::frame_rmsd))
                .sum::<f64>()
        });
    }
}

// ----------------------------------------------------------------- LF

/// Fig. 7 on the 262k system ÷64: four approaches × {Spark, Dask, MPI} ×
/// {32, 256} cores at 1024 partitions, plus Pilot (approach 2) at 256.
/// Besides the edge kernels, engines shuffle, broadcast and stage edge
/// lists and partial components.
struct LfSweep {
    seed: u64,
    /// The seed of the current pass's inputs.
    input_seed: u64,
    /// Positions, configuration and the generator's leaflet sizes.
    input: Option<(Arc<Vec<mdtask::math::Vec3>>, LfConfig, [usize; 2])>,
    /// Approach, engine, configuration and partition count of each run.
    runs: Vec<(LfApproach, Engine, RunConfig, usize)>,
    outputs: Vec<Result<LfRun, EngineError>>,
}

const LF_ENGINES: [Engine; 3] = [Engine::Spark, Engine::Dask, Engine::Mpi];
const LF_CORES: [usize; 2] = [32, 256];
const LF_PARTITIONS: usize = 1024;
const LF_DATASET: LfDatasetId = LfDatasetId::Atoms262k;
const LF_ATOM_SCALE: usize = 64;
/// Pilot runs once, at the larger allocation and with fewer partitions:
/// each of its units stages a real file, and at 1024 partitions a file
/// system whose create rate swings by 10x would set this workload's time
/// (see README). At 64 partitions the 2-D blocks of the 262k system fail
/// the memory model's gate.
const LF_PILOT_CORES: usize = 256;
const LF_PILOT_PARTITIONS: usize = 256;

impl LfSweep {
    fn new(seed: u64) -> Self {
        LfSweep {
            seed,
            input_seed: seed,
            input: None,
            runs: Vec::new(),
            outputs: Vec::new(),
        }
    }
}

impl Workload for LfSweep {
    fn ops(&self) -> usize {
        LfApproach::ALL.len() * LF_ENGINES.len() * LF_CORES.len() + 1
    }

    fn drop_inputs(&mut self) {
        self.input = None;
    }

    fn setup(&mut self, pass: u64) {
        self.input_seed = pass_seed(self.seed, pass);
        let b = lf_dataset(LF_DATASET, LF_ATOM_SCALE, self.input_seed);
        let (up, down) = b.leaflet_sizes();
        let truth = [up.max(down), up.min(down)];
        let cfg = LfConfig {
            cutoff: b.suggested_cutoff,
            partitions: LF_PARTITIONS,
            paper_atoms: LF_DATASET.paper_atoms(),
            charge_io: true,
        };
        self.input = Some((Arc::new(b.positions), cfg, truth));
        self.runs = LfApproach::ALL
            .iter()
            .flat_map(|&a| {
                LF_ENGINES.iter().flat_map(move |&e| {
                    LF_CORES.map(|c| (a, e, config(e, c).approach(a), LF_PARTITIONS))
                })
            })
            .collect();
        self.runs.push((
            LfApproach::Task2D,
            Engine::Pilot,
            config(Engine::Pilot, LF_PILOT_CORES),
            LF_PILOT_PARTITIONS,
        ));
    }

    fn pass(&mut self, tr: &mut Tracer) -> usize {
        let (positions, cfg, _) = self.input.as_ref().expect("setup ran");
        for (_, engine, rc, partitions) in &self.runs {
            let l = layer(*engine);
            let cfg = LfConfig {
                partitions: *partitions,
                ..cfg.clone()
            };
            let out = tr.call(&format!("{l}.run_lf"), &format!("{l}.host_s"), || {
                run_lf(rc, Arc::clone(positions), &cfg)
            });
            if let Ok(o) = &out {
                count_report(tr, *engine, &o.report);
            }
            self.outputs.push(out);
        }
        self.outputs.iter().filter(|o| o.is_err()).count()
    }

    fn check(&mut self) -> Result<(), String> {
        let (positions, cfg, truth) = self.input.take().expect("setup ran");
        let want = reference::leaflets(&positions, cfg.cutoff);
        if want.sizes != truth {
            return Err(format!(
                "reference finds {want:?}, generator built leaflets {truth:?}"
            ));
        }
        let outputs = std::mem::take(&mut self.outputs);
        for ((approach, engine, rc, _), out) in self.runs.drain(..).zip(&outputs) {
            let Ok(o) = out else { continue };
            let got = Leaflets {
                edges: o.edges_found,
                components: o.n_components,
                sizes: [
                    o.leaflet_sizes.first().copied().unwrap_or(0),
                    o.leaflet_sizes.get(1).copied().unwrap_or(0),
                ],
            };
            if got != want {
                return Err(format!(
                    "lf {} on {engine} at {} cores: got {got:?}, reference {want:?}",
                    approach.label(),
                    rc.cluster_ref().total_cores()
                ));
            }
        }
        Ok(())
    }

    fn probes(&mut self, tr: &mut Tracer, m: &mut Metrics) {
        let b = probe(tr, m, "mdsim.generate_s", || {
            lf_dataset(LF_DATASET, LF_ATOM_SCALE, self.input_seed)
        });
        let (pos, cutoff) = (&b.positions, b.suggested_cutoff);
        let blocks = plan_2d_grid(pos.len(), grid_for_tasks(LF_PARTITIONS));
        let per_block: Vec<Vec<(u32, u32)>> = probe(tr, m, "neighbors.tree_edges_s", || {
            blocks
                .iter()
                .map(|&bl| block_edges_tree(pos, bl, cutoff))
                .collect()
        });
        probe(tr, m, "linalg.cdist_edges_s", || {
            blocks
                .iter()
                .map(|&bl| block_edges(pos, bl, cutoff).len())
                .sum::<usize>()
        });
        let edges: Vec<(u32, u32)> = per_block.iter().flatten().copied().collect();
        m.add("lf.edges", "count", edges.len() as f64);
        probe(tr, m, "graphops.components_s", || {
            mdtask::graph::connected_components_uf(pos.len(), &edges)
        });
        probe(tr, m, "graphops.partials_s", || {
            per_block
                .iter()
                .map(|e| mdtask::graph::partial_components(e).node_count())
                .sum::<usize>()
        });
    }
}

// ---------------------------------------------------------- task bags

/// Fig. 2: zero-work bags on one Wrangler node through Spark, Dask and
/// Pilot. No kernel runs, so engine dispatch, the executor and Pilot's
/// file staging do all the work.
#[derive(Default)]
struct TaskBag {
    bags: Vec<(Engine, Cluster, Vec<BagTask>)>,
    outputs: Vec<(Engine, usize, BagRun)>,
}

/// Tasks per bag. Pilot stages one real file per unit, so its bag stays
/// small enough that a slow file system cannot set the pass time.
const BAGS: [(Engine, usize); 3] = [
    (Engine::Spark, 1_000_000),
    (Engine::Dask, 1_000_000),
    (Engine::Pilot, 256),
];

/// A bag's results in task order, and the engine's report.
type BagRun = Result<(Vec<u64>, SimReport), EngineError>;

fn zero_tasks(n: usize) -> Vec<BagTask> {
    (0..n)
        .map(|i| Box::new(move |_: &TaskCtx| i as u64) as BagTask)
        .collect()
}

fn run_bag(engine: Engine, cluster: Cluster, tasks: Vec<BagTask>) -> BagRun {
    match engine {
        Engine::Spark => mdtask::spark::SparkContext::new(cluster).run_bag(tasks),
        Engine::Dask => mdtask::dask::DaskClient::new(cluster).run_bag(tasks),
        Engine::Pilot => mdtask::rp::Session::new(cluster)?.run_bag(tasks),
        Engine::Mpi => Err(EngineError::Unsupported("no MPI bag engine".into())),
    }
}

impl Workload for TaskBag {
    fn ops(&self) -> usize {
        BAGS.len()
    }

    fn drop_inputs(&mut self) {
        self.bags.clear();
    }

    fn setup(&mut self, _pass: u64) {
        self.bags = BAGS
            .iter()
            .map(|&(e, n)| (e, Cluster::new(wrangler(), 1), zero_tasks(n)))
            .collect();
    }

    fn pass(&mut self, tr: &mut Tracer) -> usize {
        for (engine, cluster, tasks) in self.bags.drain(..) {
            let l = layer(engine);
            let n = tasks.len();
            let out = tr.call(&format!("{l}.run_bag"), &format!("{l}.host_s"), || {
                run_bag(engine, cluster, tasks)
            });
            if let Ok((_, r)) = &out {
                count_report(tr, engine, r);
            }
            self.outputs.push((engine, n, out));
        }
        self.outputs.iter().filter(|o| o.2.is_err()).count()
    }

    fn check(&mut self) -> Result<(), String> {
        for (engine, n, out) in self.outputs.drain(..) {
            let Ok((results, report)) = out else { continue };
            if report.tasks != n {
                return Err(format!(
                    "{engine} bag of {n}: report counts {} tasks",
                    report.tasks
                ));
            }
            if results.len() != n || results.iter().enumerate().any(|(i, &r)| r != i as u64) {
                return Err(format!(
                    "{engine} bag of {n}: results are not the task indices in order"
                ));
            }
        }
        Ok(())
    }

    fn probes(&mut self, tr: &mut Tracer, m: &mut Metrics) {
        let total: usize = BAGS.iter().map(|b| b.1).sum();
        probe(tr, m, "netsim.bag_s", || {
            let mut exec = SimExecutor::new(Cluster::new(wrangler(), 1));
            for _ in 0..total {
                exec.run_task(0.0, 0.0);
            }
            exec.report().tasks
        });
        let units = BAGS
            .iter()
            .find(|b| b.0 == Engine::Pilot)
            .map_or(0, |b| b.1);
        probe(tr, m, "mdio.stage_s", || {
            let area = StagingArea::temp("probe").expect("temp dir is writable");
            for i in 0..units {
                area.stage_in(i, "input", &[]).expect("stage in");
            }
            for i in 0..units {
                area.stage_out(i, "input").expect("stage out");
            }
            area.cleanup().expect("staging dir removable");
        });
    }
}

// ------------------------------------------------------------ service

/// `mdtaskd`: eight weighted tenants submit jobs on a fixed virtual-time
/// schedule (an open loop at 60% of capacity) drawn from a four-recipe
/// pool, to two 32×24 clusters, one of which loses a node half-way.
/// Durations are measured once per recipe and cluster, so the pass is
/// the service's admission, stride-scheduling, quota and requeue path.
struct ServiceBurst {
    seed: u64,
    pool: [Recipe; 4],
    batch: Option<(Service, Vec<TenantSpec>, Vec<JobRequest>)>,
    output: Option<Result<ServiceReport, EngineError>>,
}

const SVC_JOBS: usize = 100_000;
const SVC_TENANTS: usize = 8;
/// Virtual seconds between submissions; jobs last ~0.2 virtual seconds
/// on 2 × 768 slots, so the service runs at ~60% of capacity.
const SVC_GAP_S: f64 = 2.5e-4;
const SVC_ENGINE: Engine = Engine::Dask;
const GIB: u64 = 1 << 30;

fn svc_clusters() -> Vec<Cluster> {
    let big = |plan: FaultPlan| {
        Cluster::builder()
            .nodes(32)
            .cores_per_node(24)
            .mem_budget(64 * GIB)
            .fault_plan(plan)
            .build()
    };
    let mid_s = SVC_JOBS as f64 * SVC_GAP_S / 2.0;
    vec![
        big(FaultPlan::none().kill_node(5, mid_s)),
        big(FaultPlan::none()),
    ]
}

/// The configuration the service itself measures a recipe with.
fn svc_config(cluster: &Cluster) -> RunConfig {
    let c = cluster.clone().with_faults(FaultPlan::none());
    let world = c.total_cores().min(4);
    RunConfig::new(c, SVC_ENGINE)
        .threads(Threads::Serial)
        .mpi_world(world)
}

/// The four recipes jobs are drawn from, their inputs seeded by `seed`.
fn svc_pool(seed: u64) -> [Recipe; 4] {
    let s = |k: u64| mix(seed ^ k);
    [
        Recipe::Lf {
            n_atoms: 256,
            partitions: 4,
            seed: s(1),
        },
        Recipe::Psa {
            n_traj: 4,
            n_frames: 8,
            groups: 2,
            seed: s(2),
        },
        Recipe::Rmsd {
            n_atoms: 64,
            n_frames: 16,
            slices: 4,
            seed: s(3),
        },
        Recipe::Contacts {
            n_atoms: 64,
            n_frames: 16,
            slices: 4,
            seed: s(4),
        },
    ]
}

impl ServiceBurst {
    fn new(seed: u64) -> Self {
        ServiceBurst {
            seed,
            pool: svc_pool(seed),
            batch: None,
            output: None,
        }
    }

    /// Each (recipe, cluster) run directly, as the service measures it.
    fn direct(&self, tr: &mut Tracer) -> Result<HashMap<(Recipe, usize), u64>, String> {
        let mut out = HashMap::new();
        for (c, cluster) in svc_clusters().iter().enumerate() {
            for w in self.pool {
                let run = tr
                    .call("dasklet.run_workload", "dasklet.host_s", || {
                        run_workload(&svc_config(cluster), &w)
                    })
                    .map_err(|e| format!("direct {} run failed: {e}", w.label()))?;
                count_report(tr, SVC_ENGINE, &run.report);
                out.insert((w, c), run.fingerprint);
            }
        }
        Ok(out)
    }
}

impl Workload for ServiceBurst {
    fn ops(&self) -> usize {
        SVC_JOBS
    }

    fn drop_inputs(&mut self) {
        self.batch = None;
    }

    fn setup(&mut self, pass: u64) {
        let seed = pass_seed(self.seed, pass);
        self.pool = svc_pool(seed);
        let tenants: Vec<TenantSpec> = (0..SVC_TENANTS)
            .map(|t| {
                TenantSpec::new(
                    &format!("tenant-{t}"),
                    1 + (t % 4) as u32,
                    8 * GIB,
                    SVC_JOBS,
                )
            })
            .collect();
        let jobs = (0..SVC_JOBS)
            .map(|i| {
                let r = mix(seed ^ i as u64);
                JobRequest::new(
                    i % SVC_TENANTS,
                    i as f64 * SVC_GAP_S,
                    self.pool[(r % 4) as usize],
                )
                .working_set(16 << 20)
                .priority((r >> 8) as u8 % 3)
                .policy(RetryPolicy::new(4).with_detection_delay(0.05))
            })
            .collect();
        self.batch = Some((Service::new(svc_clusters(), SVC_ENGINE), tenants, jobs));
    }

    fn pass(&mut self, tr: &mut Tracer) -> usize {
        let (svc, tenants, jobs) = self.batch.as_ref().expect("setup ran");
        let out = tr.call("mdtaskd.run", "mdtaskd.run_s", || svc.run(tenants, jobs));
        let failed = match &out {
            Ok(r) => {
                let retries: u32 = r.jobs.iter().map(|j| j.retries).sum();
                tr.count("mdtaskd.jobs", "count", r.jobs.len() as f64);
                tr.count("mdtaskd.retries", "count", retries as f64);
                tr.count("mdtaskd.peak_concurrent", "count", r.peak_concurrent as f64);
                for (name, p) in [("p50", 0.5), ("p99", 0.99)] {
                    let q = r.latency_quantile(p).unwrap_or(f64::NAN);
                    tr.count(&format!("mdtaskd.latency_{name}_vs"), "s", q);
                }
                r.jobs.iter().filter(|j| j.result.is_err()).count()
            }
            Err(_) => SVC_JOBS,
        };
        self.output = Some(out);
        failed
    }

    fn check(&mut self) -> Result<(), String> {
        let (_, tenants, jobs) = self.batch.take().expect("setup ran");
        let Some(Ok(report)) = self.output.take() else {
            return Ok(());
        };
        let fingerprints = self.direct(&mut Tracer::default())?;
        if report.jobs.len() != jobs.len() {
            return Err(format!(
                "{} outcomes for {} jobs",
                report.jobs.len(),
                jobs.len()
            ));
        }
        for o in &report.jobs {
            let Ok(fp) = o.result else { continue };
            let cluster = o
                .cluster
                .ok_or(format!("job {} completed on no cluster", o.job))?;
            let want = fingerprints[&(jobs[o.job].workload, cluster)];
            if fp != want {
                return Err(format!(
                    "job {} fingerprint {fp:#x}, direct run {want:#x}",
                    o.job
                ));
            }
        }
        for (t, (stats, spec)) in report.tenants.iter().zip(&tenants).enumerate() {
            if stats.mem_high_water > spec.quota_bytes {
                return Err(format!(
                    "tenant {t} held {} bytes over its quota",
                    stats.mem_high_water
                ));
            }
            if stats.submitted != stats.completed + stats.failed + stats.rejected {
                return Err(format!("tenant {t}: {stats:?} does not add up"));
            }
        }
        Ok(())
    }

    fn probes(&mut self, tr: &mut Tracer, m: &mut Metrics) {
        probe(tr, m, "mdsim.generate_s", || {
            for w in self.pool {
                match w {
                    Recipe::Lf { n_atoms, seed, .. } => {
                        let spec = BilayerSpec {
                            n_atoms,
                            ..Default::default()
                        };
                        drop(mdtask::sim::bilayer::generate(&spec, seed));
                    }
                    Recipe::Psa {
                        n_traj,
                        n_frames,
                        seed,
                        ..
                    } => {
                        let spec = ChainSpec {
                            n_atoms: 10,
                            n_frames,
                            stride: 1,
                            ..Default::default()
                        };
                        drop(mdtask::sim::chain::generate_ensemble(&spec, n_traj, seed));
                    }
                    Recipe::Rmsd {
                        n_atoms,
                        n_frames,
                        seed,
                        ..
                    }
                    | Recipe::Contacts {
                        n_atoms,
                        n_frames,
                        seed,
                        ..
                    } => {
                        let spec = ChainSpec {
                            n_atoms,
                            n_frames,
                            stride: 1,
                            ..Default::default()
                        };
                        drop(mdtask::sim::chain::generate(&spec, seed));
                    }
                    Recipe::Rmsd2d { .. } => {}
                }
            }
        });
        // `direct` takes the tracer itself, for its engine spans.
        let span = tr.open("probe.mdtaskd.measure_s");
        let t = Instant::now();
        let measured = self.direct(tr);
        m.add("mdtaskd.measure_s", "s", t.elapsed().as_secs_f64());
        tr.close(span);
        if let Err(e) = measured {
            eprintln!("perfbench: {e}");
        }
        tr.fold_pass(m);
        let run_s = m.median_of("mdtaskd.run_s").unwrap_or(0.0);
        let measure_s = m.median_of("mdtaskd.measure_s").unwrap_or(0.0);
        m.add("mdtaskd.control_s", "s", run_s - measure_s);
    }
}
