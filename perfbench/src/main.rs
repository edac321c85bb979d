//! The repository's benchmark: renders one named workload through the
//! public API, checks its outputs, and prints its metrics.
//!
//! ```text
//! neo-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off and runs
//! the correctness gate; `--trace 1` is a separate run that times every
//! call into each layer from this benchmark's own code and writes the
//! per-layer table and a Chrome trace under `.bench_out/`. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. Any failed check exits with code 1.

mod closed;
mod guard;
mod layers;
mod probe;
mod recompose;
mod serve;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use workload::{Size, Workload};

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// Failed correctness checks; empty when the outputs are correct.
    pub failures: Vec<String>,
    /// Wall-clock values of the timings reported at the reference
    /// machine speed (see `probe`).
    pub wall: Vec<(&'static str, f64)>,
    /// Sample counts behind the reported statistics.
    pub samples: Vec<(&'static str, usize)>,
    /// Chrome trace-event JSON of a traced run.
    pub trace: Option<String>,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustc: String,
    commit: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |key: &str| -> Option<String> {
        let i = args.iter().position(|a| a == key)?;
        args.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        rustc: get("--rustc").unwrap_or_else(|| "unknown".into()),
        commit: get("--commit").unwrap_or_else(|| "unknown".into()),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match (args.workload, args.trace) {
        (Workload::ServeVr, false) => {
            serve::run(&workload::serve_spec(args.seed, args.seconds, Size::Full))
        }
        (Workload::ServeVr, true) => {
            serve::run_traced(&workload::serve_spec(args.seed, args.seconds, Size::Full))
        }
        (w, false) => closed::run(
            &workload::closed_spec(w, args.seed, Size::Full),
            args.seconds,
        ),
        (w, true) => closed::run_traced(
            &workload::closed_spec(w, args.seed, Size::Full),
            args.seconds,
        ),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(outcome: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Run metadata, so results from different machines are never compared
/// silently.
fn meta_json(args: &Args, outcome: &Outcome) -> String {
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let wall: Vec<String> = outcome
        .wall
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"probe_reference_ms\": {}, \"wall\": {{{}}}, \"samples\": {{{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::nproc(),
        json_str(&stats::cpu_model()),
        json_str(&args.rustc),
        json_str(&args.commit),
        probe::REFERENCE_MS,
        wall.join(", "),
        samples.join(", ")
    )
}

fn write_trace_files(args: &Args, outcome: &Outcome) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    if let Some(chrome) = &outcome.trace {
        let path = dir.join(format!("{stem}.trace.json"));
        std::fs::write(&path, chrome).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# chrome trace: {}", path.display());
    }
    let table = layers::layer_table(args.workload.name(), &outcome.metrics);
    let path = dir.join(format!("{stem}.layers.txt"));
    std::fs::write(&path, &table).map_err(|e| format!("{}: {e}", path.display()))?;
    print!("{table}");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("neo-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("neo-perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let mut failures = outcome.failures.clone();
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        failures.push(format!("{} is not a finite number", m.name));
    }
    if args.trace {
        let get = |n: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == n)
                .map_or(0.0, |m| m.value)
        };
        println!(
            "# {}: spans cover {:.1}% of core.frame_ms ({:.3} ms); traced recomposition costs {:+.2}% over the untraced engine frame",
            args.workload.name(),
            get("core.span_coverage_pct"),
            get("core.frame_ms"),
            get("core.trace_overhead_pct")
        );
        if let Err(e) = write_trace_files(&args, &outcome) {
            failures.push(e);
        }
    }
    println!("# meta {}", meta_json(&args, &outcome));
    for f in &failures {
        eprintln!("neo-perfbench: check failed: {f}");
    }
    println!("{}", result_json(&outcome, failures.is_empty()));
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Checks `metrics` against the `section` list of `BENCHMARK.json`:
/// the same names in the same order, each a valid name with its unit.
#[cfg(test)]
pub fn assert_matches_benchmark(metrics: &[Metric], section: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    let listed: Vec<(String, String)> = body
        .split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect();
    let produced: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(
        produced, listed,
        "{section} metrics differ from BENCHMARK.json"
    );
    for m in metrics {
        assert!(
            !m.name.is_empty()
                && m.name.len() <= 64
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {}",
            m.name
        );
        assert!(!m.unit.is_empty(), "{} has no unit", m.name);
        assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
        if section == "per_layer" {
            assert!(
                !layers::prediction(m.name).is_empty(),
                "{} has no prediction",
                m.name
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let o = Outcome {
            metrics: vec![Metric::new("frame_ms_p50", "ms", 1.25)],
            attempted: 3,
            failed: 0,
            failures: vec![],
            wall: vec![],
            samples: vec![],
            trace: None,
        };
        assert_eq!(
            result_json(&o, true),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"frame_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
