//! Runs one workload once and prints its metrics.
//!
//! ```text
//! perfbench --workload synth|coverage|diagnose --seed N --seconds S --trace 0|1
//!           [--commit ID] [--out-dir DIR]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the per-layer
//! metrics traced).  A record of the run — host fingerprint, CPU beside
//! wall time per phase, the workload's own figures, and for a traced run
//! the spans (JSONL) and their summary — goes to `--out-dir`
//! (default `.bench_runs`).  Workload sizes are fixed: `--seconds` is
//! recorded but never changes how much work a run does.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::host::{fingerprint, peak_rss_mb, PhaseTime};
use perfbench::report::Outcome;
use perfbench::tracer::{child_coverage, json_map, layer_self_times, Tracer};
use perfbench::{coverage, diagnose, per_layer_unit, synth, PER_LAYER};
use stfsm::json::{JsonObject, JsonValue, RawJson};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    commit: String,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        values.insert(key, value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .copied()
            .ok_or(format!("--{key} is required"))
    };
    let number = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("--{key} must be a whole number"))
    };
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload: get("workload")?.to_string(),
        seed: number("seed")?,
        seconds: number("seconds")?,
        trace,
        commit: values.get("commit").unwrap_or(&"unknown").to_string(),
        out_dir: PathBuf::from(values.get("out-dir").unwrap_or(&".bench_runs")),
    })
}

fn metric(value: f64, unit: &str) -> RawJson {
    let mut obj = JsonObject::new();
    obj.field("value", value).field("unit", unit);
    RawJson(obj.finish())
}

/// The end-to-end metrics of a run, in report order.
fn end_to_end(outcome: &Outcome, peak_rss: f64) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", outcome.setup.reference_s, "s"),
        ("peak_rss_mb", peak_rss, "MB"),
        ("stage_a_per_s", outcome.stage_a.rate(), "1/s"),
        ("stage_b_per_s", outcome.stage_b.rate(), "1/s"),
    ]
}

fn per_layer(tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let counts = tracer.counts();
    PER_LAYER
        .iter()
        .map(|&name| {
            let value = match name.strip_suffix("_s") {
                Some(span) => tracer.total_seconds(span),
                None => counts.get(name).copied().unwrap_or(0.0),
            };
            (name, value)
        })
        .collect()
}

/// The latest untraced record of this workload, preferring this seed.
fn untraced_reference(out_dir: &Path, workload: &str, seed: u64) -> Option<JsonValue> {
    let same_seed = out_dir.join(format!("{workload}-s{seed}-t0.json"));
    let path = if same_seed.exists() {
        same_seed
    } else {
        std::fs::read_dir(out_dir)
            .ok()?
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                    n.starts_with(&format!("{workload}-s")) && n.ends_with("-t0.json")
                })
            })
            .max_by_key(|p| std::fs::metadata(p).and_then(|m| m.modified()).ok())?
    };
    JsonValue::parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// The traced run's summary: per-layer self time, ratios with their
/// bases, span coverage of the timed phase, and tracing overhead.
fn trace_summary(
    tracer: &Tracer,
    args: &Args,
    layer: &[(&str, f64)],
    e2e: &[(&str, f64, &str)],
) -> (RawJson, Vec<String>) {
    let spans = tracer.spans();
    let value = |name: &str| {
        layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let mut lines = Vec::new();

    let layers: Vec<RawJson> = layer_self_times(&spans)
        .into_iter()
        .map(|(name, (self_s, count))| {
            lines.push(format!(
                "layer {name:<12} self {self_s:>10.4} s  spans {count}"
            ));
            let mut obj = JsonObject::new();
            obj.field("layer", &name)
                .field("self_s", self_s)
                .field("spans", count);
            RawJson(obj.finish())
        })
        .collect();

    let layer_spans_s = value("encode.misr_assign_s")
        + value("encode.dff_assign_s")
        + value("encode.pat_assign_s")
        + value("encode.random_assign_s")
        + value("bist.excitation_s")
        + value("logic.espresso_s")
        + value("bist.netlist_s");
    let round_trips = value("serve.round_trip_triage_s") + value("serve.round_trip_pass_s");
    let cache = value("testsim.cache_hits") + value("testsim.cache_misses");
    let queries = spans
        .iter()
        .filter(|s| s.name == "serve.service_query")
        .count() as f64;
    let ratio_rows = [
        (
            "logic.cubes_out/cubes_in",
            value("logic.cubes_out"),
            value("logic.cubes_in"),
        ),
        (
            "testsim.cache_hits/lookups",
            value("testsim.cache_hits"),
            cache,
        ),
        (
            "testsim.events_drained/events_scheduled",
            value("testsim.events_drained"),
            value("testsim.events_scheduled"),
        ),
        (
            "core.flow_glue_s/core.synthesize_s",
            value("core.synthesize_s") - layer_spans_s,
            value("core.synthesize_s"),
        ),
        (
            "serve.transport_s/round_trip_s",
            round_trips - value("serve.service_query_s") - value("core.json_parse_s"),
            round_trips,
        ),
        (
            "core.json_parse_s/round_trip_s",
            value("core.json_parse_s"),
            round_trips,
        ),
        (
            "serve.answer_mismatches/queries",
            value("serve.answer_mismatches"),
            queries,
        ),
    ];
    let ratios: Vec<RawJson> = ratio_rows
        .into_iter()
        .map(|(name, part, base)| {
            let value = if base > 0.0 { part / base } else { f64::NAN };
            lines.push(format!(
                "ratio {name:<40} {value:>10.4} = {part:.4} / {base:.4}"
            ));
            let mut obj = JsonObject::new();
            obj.field("ratio", name)
                .field("value", value)
                .field("part", part)
                .field("base", base);
            RawJson(obj.finish())
        })
        .collect();

    let timed = spans
        .iter()
        .position(|s| s.name == "timed" && s.parent.is_none());
    let coverage = timed.map_or(0.0, |root| child_coverage(&spans, root, "bench.calibrate"));
    let calibrate_s = tracer.total_seconds("bench.calibrate");
    lines.push(format!(
        "top-level layer spans cover {:.1}% of the timed phase (calibration chunks excluded: {calibrate_s:.3} s)",
        coverage * 100.0
    ));

    let reference = untraced_reference(&args.out_dir, &args.workload, args.seed);
    let overhead: Vec<RawJson> = e2e
        .iter()
        .map(|(name, traced, unit)| {
            let untraced = reference
                .as_ref()
                .and_then(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64());
            let delta = untraced.map(|u| traced - u);
            lines.push(match (untraced, delta) {
                (Some(u), Some(d)) => {
                    format!("overhead {name:<16} traced {traced:.4} untraced {u:.4} delta {d:+.4} {unit}")
                }
                _ => format!("overhead {name:<16} traced {traced:.4} {unit} (no untraced record)"),
            });
            let mut obj = JsonObject::new();
            obj.field("metric", *name)
                .field("unit", *unit)
                .field("traced", *traced)
                .field("untraced", untraced)
                .field("traced_minus_untraced", delta);
            RawJson(obj.finish())
        })
        .collect();

    let mut obj = JsonObject::new();
    obj.field("spans", spans.len())
        .field("layers", layers)
        .field("ratios", ratios)
        .field("timed_span_coverage", coverage)
        .field("calibration_s", calibrate_s)
        .field("overhead", overhead)
        .field(
            "overhead_reference_seed",
            reference.as_ref().and_then(|r| r.get("seed")?.as_u64()),
        );
    (RawJson(obj.finish()), lines)
}

fn run(args: &Args) -> Result<(Outcome, Tracer), String> {
    let tracer = Tracer::new(args.trace);
    let work_dir = args.out_dir.join(format!("work-{}", std::process::id()));
    let outcome = match args.workload.as_str() {
        "synth" => synth::run(args.seed, &tracer),
        "coverage" => coverage::run(args.seed, &tracer),
        "diagnose" => diagnose::run(args.seed, &tracer, &work_dir),
        other => Err(format!(
            "unknown workload '{other}' (synth, coverage, diagnose)"
        )),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    outcome.map(|o| (o, tracer))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let host = fingerprint(&args.commit);
    let (outcome, tracer) = match run(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {} failed to set up: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let peak_rss = peak_rss_mb();
    let e2e = end_to_end(&outcome, peak_rss);
    let failed = outcome.failures.len();
    let correct = failed == 0;

    println!(
        "perfbench {} seed={} trace={}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("  host {}", host.0);
    for (name, value, unit) in &e2e {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    let mut figures: Vec<(String, f64, String)> = [
        ("setup_wall_s", outcome.setup.wall_s),
        ("stage_a_wall_s", outcome.stage_a.timing.wall_s),
        ("stage_a_reference_s", outcome.stage_a.timing.reference_s),
        ("stage_b_wall_s", outcome.stage_b.timing.wall_s),
        ("stage_b_reference_s", outcome.stage_b.timing.reference_s),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value, "s".to_string()))
    .collect();
    figures.extend(outcome.info.iter().cloned());
    for (name, value, unit) in &figures {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    for phase in &outcome.phases {
        println!(
            "  phase {:<22} wall {:>10.4} s  cpu {:>10.4} s  children {:>8.4} s",
            phase.name, phase.wall_s, phase.cpu_s, phase.child_cpu_s
        );
    }
    for failure in outcome.failures.iter().take(20) {
        println!("  FAILED: {failure}");
    }

    let run_id = format!("{}-s{}-t{}", args.workload, args.seed, u8::from(args.trace));
    let layer = per_layer(&tracer);
    let summary = if args.trace {
        let (summary, lines) = trace_summary(&tracer, &args, &layer, &e2e);
        for line in lines {
            println!("  {line}");
        }
        let spans_path = args.out_dir.join(format!("{run_id}.spans.jsonl"));
        if let Err(e) = std::fs::write(&spans_path, tracer.to_jsonl(&run_id)) {
            eprintln!("perfbench: {}: {e}", spans_path.display());
        }
        Some(summary)
    } else {
        None
    };

    let info: Vec<RawJson> = figures
        .iter()
        .map(|(name, value, unit)| metric_named(name, *value, unit))
        .collect();
    let mut record = JsonObject::new();
    record
        .field("run", &run_id)
        .field("workload", &args.workload)
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", args.trace)
        .field("host", host)
        .field(
            "metrics",
            metrics_object(e2e.iter().map(|(n, v, u)| (*n, *v, *u))),
        )
        .field("workload_figures", info)
        .field(
            "phases",
            outcome
                .phases
                .iter()
                .map(PhaseTime::to_json)
                .collect::<Vec<_>>(),
        )
        .field("attempted", outcome.attempted)
        .field("failures", &outcome.failures)
        .field("per_layer", json_map(layer.iter().copied()))
        .field("trace_summary", summary);
    let record_path = args.out_dir.join(format!("{run_id}.json"));
    if let Err(e) = std::fs::write(&record_path, record.finish() + "\n") {
        eprintln!("perfbench: {}: {e}", record_path.display());
    }

    let metrics = if args.trace {
        metrics_object(layer.iter().map(|(n, v)| (*n, *v, per_layer_unit(n))))
    } else {
        metrics_object(e2e.iter().map(|(n, v, u)| (*n, *v, *u)))
    };
    let mut last = JsonObject::new();
    last.field("correct", correct)
        .field("attempted", outcome.attempted.max(1))
        .field("failed", failed)
        .field("metrics", metrics);
    println!("{}", last.finish());
    ExitCode::SUCCESS
}

fn metric_named(name: &str, value: f64, unit: &str) -> RawJson {
    let mut obj = JsonObject::new();
    obj.field("name", name)
        .field("value", value)
        .field("unit", unit);
    RawJson(obj.finish())
}

fn metrics_object<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> RawJson {
    let mut obj = JsonObject::new();
    for (name, value, unit) in metrics {
        obj.field(name, metric(value, unit));
    }
    RawJson(obj.finish())
}
