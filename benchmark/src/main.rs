//! Wall-clock frame -> pose benchmark on the real `EdgeServer`.
//!
//! `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints every metric by name with its unit, then one JSON object as the
//! last line of standard output. See README.md for what each workload and
//! metric is for, and ../BENCHMARK.json for the contract.

mod driver;
mod replay;
mod rng;
mod trace;
mod workloads;

use driver::Outcome;
use slamshare_core::server::EdgeServer;
use slamshare_math::stats::{mean, percentile};
use slamshare_math::{umeyama, Vec3};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::Kind;

/// `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// Set-up is repeated and `setup_s` is the median, so one slow
/// allocation does not read as a regression.
const SETUP_REPS: usize = 3;

/// `slam.eval.ate_rmse_m` recorded for the two seeds the benchmark was
/// written with. On the lockstep workloads the poses up to the checkpoint
/// round repeat bit for bit, so a run of a recorded seed must land within
/// 10 % of these. Any seed must stay under the ceiling, which is wide:
/// it is there to catch a diverged map, not to grade accuracy.
const RECORDED_ATE_M: [(Kind, u64, f64); 4] = [
    (Kind::Solo, 1, 0.027_966),
    (Kind::Solo, 2, 0.029_886),
    (Kind::Shared4, 1, 0.021_888),
    (Kind::Shared4, 2, 0.017_143),
];
const ATE_TOLERANCE: f64 = 0.10;
const ATE_CEILING_M: f64 = 2.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: Kind::Solo,
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let mut workload = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    args.kind = workload.ok_or("--workload <solo|shared4|paced4|join_churn> is required")?;
    Ok(args)
}

/// Where the trace and the untraced baseline go: beside the executable,
/// which is inside the build directory and so inside the checkout.
fn out_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().unwrap_or(&exe).join("benchmark-out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// RMSE after one rigid alignment of `(estimate, ground truth)` camera
/// centres, all clients together.
fn ate_rmse_m(pairs: &[(Vec3, Vec3)]) -> f64 {
    let (est, gt): (Vec<_>, Vec<_>) = pairs.iter().copied().unzip();
    umeyama(&est, &gt, false).map_or(f64::NAN, |a| a.rmse)
}

fn end_to_end(out: &Outcome, setup_s: &[f64]) -> Vec<Metric> {
    let wall_s = (out.window_end_ns - out.measure_start_ns) as f64 / 1e9;
    vec![
        ("setup_s", percentile(setup_s, 50.0), "s"),
        ("pose_ms_p50", percentile(&out.pose_ms, 50.0), "ms"),
        ("pose_ms_p90", percentile(&out.pose_ms, 90.0), "ms"),
        ("poses_per_s", out.tracked as f64 / wall_s, "1/s"),
        (
            "tracked_ratio",
            out.succeeded() as f64 / out.attempted() as f64,
            "ratio",
        ),
        ("map_bytes", out.map_bytes as f64, "B"),
    ]
}

/// The per-layer table: driver spans around server calls, public result
/// fields, and the server's own counters read once the run is over.
fn per_layer(out: &Outcome, server: &EdgeServer, tracer: &Tracer) -> Vec<Metric> {
    let from = out.measure_start_ns;
    let wall_ms = (out.window_end_ns - from) as f64 / 1e6;
    let rounds = tracer.durations_ms("core.server.round", from);
    let round_sum: f64 = rounds.iter().sum();
    let offer_us: Vec<f64> = tracer
        .durations_ms("core.qos.offer", from)
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let queue_wait = tracer.durations_ms("core.qos.queue_wait", from);
    let frames = out.round_frames.max(1) as f64;

    let metrics = server.metrics();
    let live = metrics.queues.values();
    let offered = metrics.retired.queues.offered + live.clone().map(|q| q.offered).sum::<u64>();
    let served = metrics.retired.queues.served + live.clone().map(|q| q.served).sum::<u64>();
    let shed =
        metrics.retired.queues.dropped_overflow + live.map(|q| q.dropped_overflow).sum::<u64>();
    let ingest = |f: fn(&slamshare_core::ingest::ClientIngestSnapshot) -> u64| {
        (f(&metrics.retired.ingest) + metrics.per_client.values().map(f).sum::<u64>()) as f64
    };
    let regions = &metrics.map_sharding.per_region;
    let worker = metrics.merge_worker.unwrap_or_default();
    let (keyframes, mappoints, _) = server.global_map_stats();
    let to_shared: Vec<f64> = out.joins.iter().filter_map(|j| j.to_shared_ms).collect();

    vec![
        ("core.server.round_ms_p50", percentile(&rounds, 50.0), "ms"),
        ("core.server.round_ms_p95", percentile(&rounds, 95.0), "ms"),
        (
            "core.server.round_batch_mean",
            frames / out.rounds.max(1) as f64,
            "count",
        ),
        ("core.server.ms_per_frame", round_sum / frames, "ms"),
        ("core.server.busy_ratio", round_sum / wall_ms, "ratio"),
        (
            "core.server.register_ms_p50",
            percentile(&tracer.durations_ms("core.server.register", from), 50.0),
            "ms",
        ),
        (
            "core.server.deregister_ms_p50",
            percentile(&tracer.durations_ms("core.server.deregister", from), 50.0),
            "ms",
        ),
        (
            "core.server.join_to_shared_ms_p50",
            percentile(&to_shared, 50.0),
            "ms",
        ),
        ("core.server.mapping_ms_mean", mean(&out.mapping_ms), "ms"),
        (
            "core.server.keyframe_ratio",
            out.mapping_ms.len() as f64 / frames,
            "ratio",
        ),
        (
            "core.server.merge_block_ms_p50",
            percentile(&out.merge_block_ms, 50.0),
            "ms",
        ),
        ("core.qos.offer_us_p50", percentile(&offer_us, 50.0), "us"),
        (
            "core.qos.queue_wait_ms_p50",
            percentile(&queue_wait, 50.0),
            "ms",
        ),
        (
            "core.qos.queue_wait_ms_p90",
            percentile(&queue_wait, 90.0),
            "ms",
        ),
        ("core.qos.offered", offered as f64, "count"),
        ("core.qos.served", served as f64, "count"),
        ("core.qos.shed", shed as f64, "count"),
        ("core.ingest.decode_ms_mean", mean(&out.decode_ms), "ms"),
        ("core.ingest.dropped", ingest(|s| s.dropped_frames), "count"),
        ("core.ingest.resyncs", ingest(|s| s.resyncs), "count"),
        (
            "core.ingest.relocalizations",
            ingest(|s| s.relocalizations),
            "count",
        ),
        (
            "core.gmap.lock_wait_ms_total",
            metrics.map_sharding.total_wait_ms(),
            "ms",
        ),
        (
            "core.gmap.read_acq",
            regions.iter().map(|r| r.read_acquisitions).sum::<u64>() as f64,
            "count",
        ),
        (
            "core.gmap.write_acq",
            regions.iter().map(|r| r.write_acquisitions).sum::<u64>() as f64,
            "count",
        ),
        (
            "core.gmap.components",
            metrics.map_sharding.n_components as f64,
            "count",
        ),
        (
            "core.merge_worker.latency_ms_p50",
            worker.p50_latency_ms,
            "ms",
        ),
        (
            "core.merge_worker.merge_ms_p50",
            percentile(&out.join_merge_ms, 50.0),
            "ms",
        ),
        (
            "core.merge_worker.submitted",
            worker.submitted as f64,
            "count",
        ),
        ("core.merge_worker.applied", worker.applied as f64, "count"),
        (
            "core.merge_worker.conflicts",
            worker.conflicts as f64,
            "count",
        ),
        (
            "core.merge_worker.fallback_applies",
            worker.fallback_applies as f64,
            "count",
        ),
        (
            "core.merge_worker.no_region",
            worker.no_region as f64,
            "count",
        ),
        ("slam.map.keyframes", keyframes as f64, "count"),
        ("slam.map.mappoints", mappoints as f64, "count"),
        ("driver.joins", out.joins.len() as f64, "count"),
        (
            "driver.joins_per_s",
            out.joins.len() as f64 / (wall_ms / 1e3),
            "1/s",
        ),
        ("driver.samples", out.pose_ms.len() as f64, "count"),
        ("driver.run_s", wall_ms / 1e3, "s"),
        (
            "driver.gen_late_ms_p95",
            percentile(&tracer.durations_ms("driver.gen_late", from), 95.0),
            "ms",
        ),
    ]
}

fn run(args: &Args) -> std::io::Result<()> {
    let Args {
        kind,
        seed,
        seconds,
        trace,
    } = *args;
    let t = Instant::now();
    let inputs = workloads::generate(kind, seed, seconds);
    let render_s = t.elapsed().as_secs_f64();

    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(driver::set_up(kind, &inputs));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("SETUP_REPS > 0");
    let vocab = setup.vocab.clone();

    let mut tracer = Tracer::new(trace);
    let driver::Driver {
        server, mut out, ..
    } = driver::run(kind, &inputs, setup, seconds, &mut tracer);

    let ate = ate_rmse_m(&out.pairs[..out.checkpoint_pairs]);
    // NaN (no alignment possible) must fail too.
    if ate.is_nan() || ate >= ATE_CEILING_M {
        out.problems
            .push(format!("ATE {ate} m is not under {ATE_CEILING_M} m"));
    }
    if let Some((_, _, want)) = RECORDED_ATE_M.iter().find(|r| (r.0, r.1) == (kind, seed)) {
        if (ate - want).abs() > ATE_TOLERANCE * want {
            out.problems.push(format!(
                "ATE {ate} m is not within 10 % of the recorded {want} m"
            ));
        }
    }

    println!(
        "workload {} seed {seed} seconds {seconds} trace {}: {} samples",
        kind.name(),
        trace as u8,
        out.pose_ms.len()
    );
    let pose_p50 = percentile(&out.pose_ms, 50.0);
    let out_dir = out_dir()?;
    let baseline = out_dir.join(format!("{}.untraced_pose_ms_p50", kind.name()));
    let metrics = if trace {
        let mut m = per_layer(&out, &server, &tracer);
        drop(server);
        m.extend(replay::run(kind, &inputs, &vocab, &mut tracer));
        // Against the last untraced run of this workload in this build
        // directory; 0 until there has been one.
        let untraced: Option<f64> = std::fs::read_to_string(&baseline)
            .ok()
            .and_then(|s| s.trim().parse().ok());
        m.extend([
            ("driver.pose_ms_p50", pose_p50, "ms"),
            (
                "driver.trace_overhead_pct",
                untraced.map_or(0.0, |u| (pose_p50 / u - 1.0) * 100.0),
                "%",
            ),
            ("driver.render_s", render_s, "s"),
            ("slam.eval.ate_rmse_m", ate, "m"),
            ("slam.eval.ate_full_rmse_m", ate_rmse_m(&out.pairs), "m"),
            (
                "host.cores",
                std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
                "count",
            ),
        ]);
        let path = out_dir.join(format!("{}.trace.json", kind.name()));
        tracer.write_json(&path)?;
        println!("trace: {} spans in {}", tracer.spans.len(), path.display());
        m
    } else {
        std::fs::write(&baseline, pose_p50.to_string())?;
        end_to_end(&out, &setup_s)
    };

    let attempted = out.attempted();
    let failed = attempted - out.succeeded();
    let mut json = Vec::new();
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            out.problems.push(format!("{name} is {value}"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<40} {value:>16.4} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for problem in &out.problems {
        eprintln!("check failed: {problem}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        json.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
