//! The repository benchmark: drives `skyline-serve` and `skyline-core`
//! through their public APIs, one workload per process.
//!
//! ```text
//! perfbench --workload <read-uniform|churn-global|dynamic-hot>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the run is split into an untraced and a traced half and the metrics are
//! the per-layer ones (see `layers.rs`). See README.md.

mod cpus;
mod gen;
mod layers;
mod oracle;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use layers::Layers;
use stats::median;
use workload::{Measures, Spec, State};

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec =
                    Some(workload::spec(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Repeats the set-up `spec.setups` times and keeps the last server.
fn setup(spec: &'static Spec, seed: u64, m: &mut Measures) -> State {
    let mut state = None;
    for _ in 0..spec.setups {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(State::setup(spec, seed));
        m.setup_s.push(t0.elapsed().as_secs_f64());
    }
    state.expect("at least one set-up")
}

fn end_to_end(m: &Measures, peak_rss: f64) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", median(&m.setup_s), "s"),
        ("query_qps", m.quiet_qps(), "1/s"),
        ("query_p50_ns", m.query_p50_ns(), "ns"),
        ("query_p99_ns", m.quiet(|r| r.p99_ns), "ns"),
        ("publish_p50_ms", m.publish_p50_ms(), "ms"),
        ("save_p50_ms", m.quiet(|r| r.save_ms), "ms"),
        ("restart_p50_ms", m.quiet(|r| r.restart_ms), "ms"),
        ("snapshot_mb", median(&m.snapshot_bytes) / 1e6, "MB"),
        ("container_mb", median(&m.container_bytes) / 1e6, "MB"),
        ("peak_rss_mb", peak_rss / 1e6, "MB"),
    ]
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <read-uniform|churn-global|dynamic-hot> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let self_test = oracle::self_test();
    for failure in &self_test {
        eprintln!("perfbench: oracle self-test failed: {failure}");
    }

    let spec = args.spec;
    let mut untraced = Measures::new();
    let mut state = setup(spec, args.seed, &mut untraced);
    let metrics = if args.trace {
        let mut layers = Layers::new(layers::timer_cost_ns());
        let mut traced = Measures::new();
        workload::run_rounds(&mut state, args.seconds / 2.0, &mut untraced, None);
        workload::run_rounds(
            &mut state,
            args.seconds / 2.0,
            &mut traced,
            Some(&mut layers),
        );
        layers.report(&untraced, &traced)
    } else {
        workload::run_rounds(&mut state, args.seconds, &mut untraced, None);
        let Some(peak) = workload::peak_rss_bytes() else {
            eprintln!("perfbench: cannot read VmHWM from /proc/self/status");
            return ExitCode::FAILURE;
        };
        end_to_end(&untraced, peak)
    };
    let correct = self_test.is_empty() && state.failed == 0;
    eprintln!(
        "perfbench: {} seed {}: {} operations, {} failed",
        spec.name, args.seed, state.attempted, state.failed
    );
    println!("{}", json(correct, state.attempted, state.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_form() {
        let a = args("--workload dynamic-hot --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.spec.name, a.seed, a.seconds, a.trace),
            ("dynamic-hot", 7, 10.0, true)
        );
    }

    #[test]
    fn refuses_bad_arguments() {
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload read-uniform --seed x --seconds 1").is_err());
        assert!(args("--workload read-uniform --seed 1 --seconds 0").is_err());
        assert!(args("--workload read-uniform --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload read-uniform --seed 1").is_err());
        assert!(args("--workload read-uniform --seed 1 --seconds 1 --bogus 1").is_err());
    }
}
