//! Host-time benchmark of the mdtask stack.
//!
//! One process runs one named workload: it sets the workload up, runs
//! whole timed passes until `--seconds` have elapsed, checks every pass's
//! outputs against computations made apart from the program, and prints
//! one JSON line as the last line of standard output:
//!
//! ```text
//! {"correct": true, "attempted": 48, "failed": 0, "metrics": {...}}
//! ```
//!
//! `--trace 0` reports the end-to-end metrics (`cpu_s`, `setup_s`,
//! `peak_rss_mb`); `--trace 1` reports the per-layer metrics, taken by
//! timing calls into each layer's public functions from outside, and
//! writes the spans to `.bench_out/spans-<workload>-<seed>.json`.
//! `steady` reruns one workload k times and prints each metric's median
//! and quartiles. See `README.md` for the workloads and the metric map.

mod reference;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Everything the benchmark writes lives under this directory of the
/// checkout it runs in.
const OUT_DIR: &str = ".bench_out";

/// Set-ups timed before each pass; the last one's inputs are used. A
/// single set-up of `lf-sweep` takes about 0.15 ms, and one cold sample
/// per pass moved its run medians by up to 30% between sets of runs.
const SETUP_REPEATS: usize = 5;

const USAGE: &str = "usage:
  perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  perfbench steady --workload <name> --runs <k> --seconds <s> [--trace <0|1>] [--seed <first>]
workloads: psa-sweep, lf-sweep, task-bag, service-burst";

struct Args {
    steady: bool,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let steady = argv.first().map(String::as_str) == Some("steady");
    if steady {
        argv.remove(0);
    }
    let mut flags = BTreeMap::new();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if !["--workload", "--seed", "--seconds", "--trace", "--runs"].contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag}"));
        }
        flags.insert(flag, value);
    }
    fn num<T: std::str::FromStr>(
        flags: &BTreeMap<String, String>,
        key: &str,
        default: Option<T>,
    ) -> Result<T, String> {
        match flags.get(key) {
            Some(v) => v.parse().map_err(|_| format!("{key}: bad value {v:?}")),
            None => default.ok_or(format!("{key} is required")),
        }
    }
    let trace = match num::<u8>(&flags, "--trace", steady.then_some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds: f64 = num(&flags, "--seconds", None)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    let runs: usize = num(&flags, "--runs", (!steady).then_some(0))?;
    if steady && !(1..=50).contains(&runs) {
        return Err(format!("--runs must be in 1..=50, not {runs}"));
    }
    Ok(Args {
        steady,
        workload: flags
            .get("--workload")
            .cloned()
            .ok_or("--workload is required")?,
        seed: num(&flags, "--seed", steady.then_some(1))?,
        seconds,
        trace,
        runs,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.steady {
        steady(&args)
    } else {
        // One host thread for every timed pass: on a small shared machine
        // a second thread makes pass times spread by far more than any
        // change worth detecting (see README). Host-parallel speed-ups
        // are measured by the repository's `host_parallel` binary.
        mdtask::cluster::parallel::with_degree(mdtask::cluster::Threads::Serial, || run(&args))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A workload process's own temp dir. Pilot stages one file per
/// Compute-Unit under `std::env::temp_dir()`, so `TMPDIR` points here for
/// the whole process; the dir is removed when the run ends.
struct TempDir(PathBuf);

impl TempDir {
    fn create() -> Result<Self, String> {
        let root = std::env::current_dir()
            .map_err(|e| format!("no working directory: {e}"))?
            .join(OUT_DIR)
            .join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {root:?}: {e}"))?;
        // Still single-threaded here, so no other thread reads the
        // environment while it changes.
        std::env::set_var("TMPDIR", &root);
        Ok(TempDir(root))
    }

    /// Staging dirs a run left behind (each one is a fault).
    fn leftovers(&self) -> Vec<String> {
        std::fs::read_dir(&self.0)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .filter(|n| n.starts_with("mdtask-stage-"))
                    .collect()
            })
            .unwrap_or_default()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// File-system type of `path`, from the longest matching mount point.
fn fs_type(path: &Path) -> String {
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mut best = (0usize, "unknown".to_string());
    for line in mounts.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fs.to_string());
        }
    }
    best.1
}

/// CPU seconds this process has run (`CLOCK_PROCESS_CPUTIME_ID`), user
/// and system, all threads. On a shared host this leaves out the time the
/// host ran other tenants instead of this process, which wall time counts.
fn cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// First quartile, median and third quartile, by the same (exclusive)
/// method as Python's `statistics.quantiles(v, n=4)`.
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac.clamp(0.0, 1.0)
    };
    let mid = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    (at(0.25), mid, at(0.75))
}

/// Metrics of one run: name → (unit, one sample per pass or probe).
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (&'static str, Vec<f64>)>);

impl Metrics {
    pub fn add(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0
            .entry(name.to_string())
            .or_insert((unit, Vec::new()))
            .1
            .push(value);
    }

    pub fn median_of(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(_, v)| median(v))
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (unit, samples))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    median(samples)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut wl = workloads::by_name(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload {:?}\n{USAGE}", args.workload))?;
    let tmp = TempDir::create()?;
    let tmp_fs = fs_type(&tmp.0);
    if tmp_fs != "tmpfs" {
        eprintln!(
            "perfbench: Pilot staging falls back to {tmp_fs} at {:?} (not tmpfs)",
            tmp.0
        );
    }
    let mut tracer = Tracer::default();
    let mut metrics = Metrics::default();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut errors: Vec<String> = Vec::new();
    let mut walls = [Vec::new(), Vec::new()];
    // Peak resident set after set-up, the first pass and its check: a
    // fixed amount of work, so the figure does not depend on how many
    // passes a run fits. Later passes reuse a heap whose layout the
    // allocator and the program's hash orders decide, and on `lf-sweep`
    // about one run in four then grew its peak by 12 MB of 28.
    let mut first_peak = None;
    let mut passes = 0usize;

    // The first pass warms caches and the heap: it is checked and counted
    // but its times are not kept. Untraced passes fill the run; in traced
    // mode the second half of the time goes to traced passes, so
    // `trace.overhead_s` compares the two within one process.
    let start = Instant::now();
    let phases: &[(bool, f64)] = if args.trace {
        &[(false, 0.5), (true, 1.0)]
    } else {
        &[(false, 1.0)]
    };
    for &(traced, until) in phases {
        tracer.on = traced;
        loop {
            let warm_up = passes == 0;
            let setups: Vec<f64> = (0..SETUP_REPEATS)
                .map(|_| {
                    wl.drop_inputs();
                    let c0 = cpu_s();
                    wl.setup(passes as u64);
                    cpu_s() - c0
                })
                .collect();
            let setup_s = median(&setups);
            let root = tracer.open("pass");
            let (c1, t1) = (cpu_s(), Instant::now());
            let pass_failed = wl.pass(&mut tracer);
            let (pass_cpu_s, wall_s) = (cpu_s() - c1, t1.elapsed().as_secs_f64());
            tracer.close(root);
            if !warm_up {
                for &s in &setups {
                    metrics.add("setup_s", "s", s);
                }
                if !traced {
                    metrics.add("cpu_s", "s", pass_cpu_s);
                }
                walls[usize::from(traced)].push(wall_s);
            }
            eprintln!(
                "perfbench: pass (traced: {traced}, warm-up: {warm_up}) setup {setup_s:.6} s, \
                 cpu {pass_cpu_s:.6} s, wall {wall_s:.6} s"
            );
            attempted += wl.ops();
            failed += pass_failed;
            if let Err(e) = wl.check() {
                errors.push(e);
            }
            if first_peak.is_none() {
                first_peak = Some(peak_rss_mb()?);
            }
            if traced {
                tracer.fold_pass(&mut metrics);
            }
            passes += 1;
            if !warm_up && start.elapsed().as_secs_f64() >= args.seconds * until {
                break;
            }
        }
    }

    let left = tmp.leftovers();
    if !left.is_empty() {
        errors.push(format!("staging dirs left behind: {left:?}"));
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }

    let mut out = Metrics::default();
    if args.trace {
        wl.probes(&mut tracer, &mut metrics);
        let untraced = median(&walls[0]);
        metrics.add("trace.wall_s", "s", untraced);
        metrics.add("trace.overhead_s", "s", median(&walls[1]) - untraced);
        for name in workloads::PER_LAYER {
            let (unit, samples) = metrics.0.remove(name.0).unwrap_or((name.1, vec![0.0]));
            out.0.insert(name.0.to_string(), (unit, samples));
        }
        let path = Path::new(OUT_DIR).join(format!("spans-{}-{}.json", args.workload, args.seed));
        tracer.write(&path)?;
        eprintln!("perfbench: spans written to {}", path.display());
        print_table(&out);
    } else {
        for name in ["cpu_s", "setup_s"] {
            let samples = metrics.0.remove(name).expect("one timed pass ran");
            out.0.insert(name.into(), samples);
        }
        out.add("peak_rss_mb", "MB", first_peak.expect("one pass ran"));
    }
    drop(tmp);
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        errors.is_empty(),
        out.json()
    );
    Ok(())
}

/// The per-layer table, on standard error so the JSON line stays last.
fn print_table(m: &Metrics) {
    eprintln!("{:<28} {:>16}  unit", "per-layer metric", "value");
    for (name, (unit, samples)) in &m.0 {
        eprintln!("{name:<28} {:>16.6}  {unit}", median(samples));
    }
}

/// Run one workload `--runs` times in child processes (seeds `--seed`,
/// `--seed + 1`, ...) and print each metric's quartiles and spread.
fn steady(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut fail_shares = Vec::new();
    for i in 0..args.runs as u64 {
        let seed = args.seed + i;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start run {i}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        if !out.status.success() || !line.contains("\"correct\": true") {
            return Err(format!("run with seed {seed} failed: {line}"));
        }
        let (attempted, failed) = (json_number(line, "attempted"), json_number(line, "failed"));
        fail_shares.push(failed / attempted);
        for (name, value) in json_metrics(line) {
            samples.entry(name).or_default().push(value);
        }
        eprintln!("run {}/{} (seed {seed}): {line}", i + 1, args.runs);
    }
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>9}",
        "metric", "q1", "median", "q3", "iqr/med"
    );
    for (name, v) in &samples {
        let (q1, med, q3) = quartiles(v);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!("{name:<28} {q1:>14.6} {med:>14.6} {q3:>14.6} {spread:>9.4}");
    }
    println!("failed share per run: {fail_shares:?}");
    Ok(())
}

/// The number after `"key": ` in one of this program's own JSON lines.
fn json_number(line: &str, key: &str) -> f64 {
    let tag = format!("\"{key}\": ");
    line.split_once(&tag)
        .map(|(_, rest)| rest)
        .and_then(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(f64::NAN)
}

/// `(name, value)` of every metric in one of this program's JSON lines.
fn json_metrics(line: &str) -> Vec<(String, f64)> {
    let Some((_, body)) = line.split_once("\"metrics\": {") else {
        return Vec::new();
    };
    body.split("}, ")
        .filter_map(|entry| {
            let name = entry.trim_start_matches('"').split('"').next()?;
            Some((name.to_string(), json_number(entry, "value")))
        })
        .collect()
}
