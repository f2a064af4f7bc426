//! The benchmark command.
//!
//! ```text
//! pcs-perfbench --workload <dense-flights|churn|serve> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Prints a `perfbench:` report line (run record, every end-to-end figure
//! and the span summary), then, as the last line, the result object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).  Exits
//! non-zero when an answer was wrong or an operation failed.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use pcs_perfbench::stats::{json_string, result_line, Metrics};
use pcs_perfbench::{
    churn, dense, host, serve, Config, Outcome, END_TO_END, OPS_ATTEMPTED, PER_LAYER,
    WORKLOAD_END_TO_END,
};

struct Args {
    workload: String,
    config: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        config: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds as f64,
            trace: trace.ok_or("--trace is required")?,
            work_dir: PathBuf::from(".bench_build")
                .join("perfbench-work")
                .join(format!("{workload}-{}", std::process::id())),
        },
        workload,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: pcs-perfbench --workload <dense-flights|churn|serve> --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let toggles = host::set_toggles();
    if !toggles.is_empty() {
        eprintln!(
            "perfbench: refusing to measure with {} set; the benchmark measures the shipped defaults",
            toggles.join(", ")
        );
        return ExitCode::from(2);
    }
    let cfg = &args.config;
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::FAILURE;
    }
    let mut outcome = match args.workload.as_str() {
        "dense-flights" => dense::run(cfg),
        "churn" => churn::run(cfg),
        "serve" => serve::run(cfg),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}`; expected dense-flights, churn or serve"
            );
            let _ = std::fs::remove_dir_all(&cfg.work_dir);
            return ExitCode::from(2);
        }
    };
    if outcome.e2e.get("peak_rss_mb").is_none() {
        outcome.e2e.set(
            "peak_rss_mb",
            host::peak_rss_mib("self").unwrap_or(0.0),
            "MiB",
        );
    }
    let tally = &outcome.tally;
    outcome.e2e.set(
        "error_ratio",
        tally.missed() as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    if let Some(tracer) = &outcome.tracer {
        let path = cfg.work_dir.with_extension("spans.jsonl");
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
    let _ = std::fs::remove_dir_all(&cfg.work_dir);

    println!("perfbench: {}", report(&args.workload, cfg, &outcome));
    for note in &tally.notes {
        eprintln!("perfbench: {note}");
    }
    let metrics = if cfg.trace {
        layer_metrics(&outcome)
    } else {
        let mut m = Metrics::new();
        for (name, unit) in END_TO_END {
            m.set(name, outcome.e2e.get(name).unwrap_or(0.0), unit);
        }
        m
    };
    let correct = tally.missed() == 0;
    println!(
        "{}",
        result_line(correct, tally.attempted.max(1), tally.missed(), &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced run's metrics: every per-layer metric, then the untraced
/// half's workload-specific end-to-end figures as `e2e.<name>`.
fn layer_metrics(outcome: &Outcome) -> Metrics {
    let mut m = Metrics::new();
    for (name, unit) in PER_LAYER.iter().chain([&OPS_ATTEMPTED]) {
        m.set(name, outcome.layers.get(name).unwrap_or(0.0), unit);
    }
    for (name, unit) in WORKLOAD_END_TO_END {
        m.set(
            &format!("e2e.{name}"),
            outcome.e2e.get(name).unwrap_or(0.0),
            unit,
        );
    }
    m
}

/// The run record: workload, seed, machine and commit, every end-to-end
/// figure the workload has, and the traced half's span summary.
fn report(workload: &str, cfg: &Config, outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"commit\": {}, \"attempted\": {}, \"failed\": {}, \"wrong\": {}, \"end_to_end\": {}",
        json_string(workload),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        host::nproc(),
        json_string(&host::commit()),
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.wrong,
        outcome.e2e.to_json(),
    );
    if let Some(tracer) = &outcome.tracer {
        out.push_str(", \"spans\": {");
        for (i, (name, (count, total, own))) in tracer.summary().into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"count\": {count}, \"total_ms\": {total:.3}, \"self_ms\": {own:.3}}}"
            );
        }
        out.push('}');
    }
    out.push('}');
    out
}
