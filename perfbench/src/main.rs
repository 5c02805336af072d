//! genome-net benchmark: time-to-network on two seeded workloads.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --seed <n> --print-reference
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer metrics; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod layers;
mod metrics;
mod sys;
mod trace;
mod workload;

use layers::{guarded, traced_run, Tally, PER_LAYER};
use metrics::{median, Metrics, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{read_matrix, recorded, reference, run_op, setup, Inputs, Workload};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A recorded seed kept out of tuning, to confirm a claim on fresh data.
pub const HELD_OUT_SEED: u64 = 1001;

/// Every end-to-end metric with its unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("op_s", "s"),
    ("pairs_per_s", "1/s"),
    ("cpu_us_per_pair", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Measured operations per run, at least.
const MIN_OPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <batch-exact|ring-tcp-2> \
[--seed N] [--seconds S] [--trace 0|1] [--print-reference]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut print_reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-reference" {
            print_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("out of range (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        print_reference,
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
    let work = WorkDir::new(&args);
    let result = run(&args, &work.0);
    drop(work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The run's scratch directory under `.perfbench/`, removed on exit.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(args: &Args) -> Self {
        Self(out_dir().join(format!(
            "work-{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        )))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything the benchmark writes lives under `.perfbench/` in the
/// directory it runs from (the checkout root).
fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

fn run(args: &Args, dir: &Path) -> Result<String, String> {
    let w = args.workload;
    let threads = sys::nproc().min(2);
    let cfg = w.config(threads);
    let shape = w.shape();
    let header = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"genes\": {}, \"samples\": {}, \
         \"permutations\": {}, \"threads\": {threads}, \"nproc\": {}, \"simd_backend\": \"{}\", \
         \"cpu\": \"{}\"}}",
        w.name(),
        args.seed,
        shape.genes,
        shape.samples,
        shape.permutations,
        sys::nproc(),
        gnet_simd::dispatch::active_backend().name(),
        sys::cpu_model().replace(['"', '\\'], ""),
    );
    eprintln!("perfbench: header {header}");

    let inputs = Inputs::in_dir(dir);
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        setup(w, args.seed, &inputs)?;
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let matrix = read_matrix(&inputs.matrix_tsv)?;
    let reference = reference(w, &matrix, &cfg);
    eprintln!(
        "perfbench: set-up {:.3} s (median of {SETUP_REPS}), reference {:.3} s",
        median(&setup_times),
        t.elapsed().as_secs_f64()
    );
    if args.print_reference {
        return Ok(format!(
            "{} {} {:016x} {}",
            w.name(),
            args.seed,
            reference.digest,
            reference.edges
        ));
    }
    let mut reference_ok = true;
    match recorded(w, args.seed) {
        Some((digest, edges)) if (digest, edges) != (reference.digest, reference.edges) => {
            eprintln!(
                "perfbench: reference {:016x} ({} edges) != recorded {digest:016x} ({edges} edges)",
                reference.digest, reference.edges
            );
            reference_ok = false;
        }
        Some(_) => eprintln!("perfbench: reference matches the recorded digest"),
        None => eprintln!("perfbench: seed {} has no recorded digest", args.seed),
    }

    let (metrics, tally) = if args.trace {
        let tracer = trace::Tracer::default();
        let run = traced_run(w, &inputs, &matrix, &cfg, args.seconds, &reference, &tracer);
        write_spans(args, &header, &tracer)?;
        check_names(&run.metrics, &PER_LAYER);
        (run.metrics, run.tally)
    } else {
        let (m, tally) = measure(
            w,
            &inputs,
            &cfg,
            args.seconds,
            reference.digest,
            &setup_times,
        );
        check_names(&m, &END_TO_END);
        (m, tally)
    };
    for (name, value, unit) in metrics.iter() {
        println!("{name:<38} {value:>16} {unit}");
    }
    Ok(Outcome {
        correct: reference_ok && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
    .to_json_line())
}

/// Closed loop, one client: one warm-up operation, then operations back
/// to back until `seconds` have passed and at least [`MIN_OPS`] ran.
fn measure(
    w: Workload,
    inputs: &Inputs,
    cfg: &gnet_core::InferenceConfig,
    seconds: f64,
    want: u64,
    setup_times: &[f64],
) -> (Metrics, Tally) {
    let pairs = w.shape().pairs_per_op();
    let op = || {
        guarded(|| run_op(w, inputs, cfg)).and_then(|o| {
            if o.pairs == pairs {
                Ok(o.digest)
            } else {
                Err(format!(
                    "evaluated {} pairs, the shape says {pairs}",
                    o.pairs
                ))
            }
        })
    };
    let mut tally = Tally::default();
    let warm = op();
    tally.check("warm-up op", warm, want);

    if !sys::reset_peak_rss() {
        eprintln!("perfbench: cannot reset the peak-RSS mark; peak_rss_mb spans the process");
    }
    let (mut walls, mut cpu_us_per_pair) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let cpu0 = sys::process_cpu();
        let t = Instant::now();
        let r = op();
        let wall = t.elapsed().as_secs_f64();
        let cpu = (sys::process_cpu() - cpu0).as_secs_f64();
        tally.check("op", r, want);
        walls.push(wall);
        cpu_us_per_pair.push(cpu * 1e6 / pairs as f64);
    }
    let peak_mb = sys::peak_rss_kb() / 1024.0;
    eprintln!(
        "perfbench: {} measured ops, op_s min {:.4} max {:.4}",
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max)
    );

    let mut m = Metrics::default();
    let op_s = median(&walls);
    let rates: Vec<f64> = walls.iter().map(|t| pairs as f64 / t).collect();
    m.set("op_s", op_s, "s");
    m.set("pairs_per_s", median(&rates), "1/s");
    m.set("cpu_us_per_pair", median(&cpu_us_per_pair), "us");
    m.set("setup_s", median(setup_times), "s");
    m.set("peak_rss_mb", peak_mb, "MB");
    (m, tally)
}

/// The emitted metric names must be exactly the declared ones.
fn check_names(m: &Metrics, declared: &[(&str, &str)]) {
    let mut emitted: Vec<&str> = m.names().collect();
    let mut want: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
    emitted.sort_unstable();
    want.sort_unstable();
    assert_eq!(
        emitted, want,
        "emitted metric names differ from the declared set"
    );
    for (name, _, unit) in m.iter() {
        let declared_unit = declared.iter().find(|(n, _)| *n == name).map(|(_, u)| *u);
        assert_eq!(Some(unit), declared_unit, "unit of {name}");
    }
}

/// Write the run header, per-layer totals (count, total and self time)
/// and every span to `.perfbench/spans-<workload>-<seed>.json`.
fn write_spans(args: &Args, header: &str, tracer: &trace::Tracer) -> Result<(), String> {
    use std::fmt::Write as _;
    let spans = tracer.spans();
    let mut s = format!("{{\"header\": {header},\n\"layers\": {{");
    for (k, (name, (count, total, own))) in trace::summarize(&spans).iter().enumerate() {
        let sep = if k == 0 { "\n" } else { ",\n" };
        let _ = write!(
            s,
            "{sep}  \"{name}\": {{\"count\": {count}, \"total_ms\": {}, \"self_ms\": {}}}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    s.push_str("\n},\n\"spans\": [");
    for (k, sp) in spans.iter().enumerate() {
        let sep = if k == 0 { "\n" } else { ",\n" };
        let _ = write!(
            s,
            "{sep}  {{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            sp.id, sp.parent, sp.op, sp.name, sp.start_ns, sp.end_ns
        );
    }
    s.push_str("\n]}\n");
    let path = out_dir().join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
    std::fs::write(&path, s).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        spans.len(),
        path.display()
    );
    Ok(())
}
