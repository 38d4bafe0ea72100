//! `perfbench` — the zoo → verdict benchmark of the adc-bist workspace.
//!
//! ```text
//! perfbench --workload <zoo_static|flash_dynamic|serve_tcp|serve_tcp_dynamic> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`), it runs one workload and prints its
//! end-to-end metrics; traced (`--trace 1`), it runs the workload
//! untraced and again under spans, then times each layer's public
//! calls, and prints the per-layer metrics. Either way the last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the run exits 1
//! when any verdict failed its correctness check. See `README.md` next
//! to this package for the workloads, metrics and baseline notes.

mod common;
mod inproc;
mod layers;
mod serve;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use common::{host_fingerprint, json_str, median, peak_rss_mib, quantile, Quality};
use inproc::Inproc;
use trace::Spans;

/// The default workload seed (the held-out seed, 1000003, is named in
/// `README.md`).
const DEFAULT_SEED: u64 = 2026;

/// What one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Verdicts per second of the timed window.
    pub devices_per_s: f64,
    /// Escapes, overkills and samples over the fixed quality window.
    pub quality: Quality,
    pub attempted: u64,
    pub failed: u64,
    /// Submit → verdict latency samples.
    pub latency_ms: Vec<f64>,
    /// One entry per set-up repetition.
    pub setup_s: Vec<f64>,
    /// FNV-1a over the quality window's verdicts.
    pub checksum: u64,
    /// Human-readable detail line.
    pub note: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkloadName {
    ZooStatic,
    FlashDynamic,
    ServeTcp,
    ServeTcpDynamic,
}

impl WorkloadName {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "zoo_static" => Some(WorkloadName::ZooStatic),
            "flash_dynamic" => Some(WorkloadName::FlashDynamic),
            "serve_tcp" => Some(WorkloadName::ServeTcp),
            "serve_tcp_dynamic" => Some(WorkloadName::ServeTcpDynamic),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            WorkloadName::ZooStatic => "zoo_static",
            WorkloadName::FlashDynamic => "flash_dynamic",
            WorkloadName::ServeTcp => "serve_tcp",
            WorkloadName::ServeTcpDynamic => "serve_tcp_dynamic",
        }
    }

    /// Runs the workload with `setup_reps` set-ups, optionally traced.
    fn run(
        self,
        seed: u64,
        seconds: f64,
        setup_reps: usize,
        spans: Option<&mut Spans>,
    ) -> std::io::Result<Outcome> {
        match self {
            WorkloadName::ZooStatic => Ok(inproc::run(
                Inproc::ZooStatic,
                seed,
                seconds,
                setup_reps,
                spans,
            )),
            WorkloadName::FlashDynamic => Ok(inproc::run(
                Inproc::FlashDynamic,
                seed,
                seconds,
                setup_reps,
                spans,
            )),
            WorkloadName::ServeTcp => {
                serve::run(seed, seconds, setup_reps, serve::STATIC_TCP, spans).map(|(o, _)| o)
            }
            WorkloadName::ServeTcpDynamic => {
                serve::run(seed, seconds, setup_reps, serve::DYNAMIC_TCP, spans).map(|(o, _)| o)
            }
        }
    }
}

struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadName::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
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
    })
}

/// Named metric values with their units, in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }

    fn print_table(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<40} {value:>16.6} {unit}");
        }
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // A non-finite reading fails the run; keep the line JSON.
                let value = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_owned()
                };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn end_to_end(o: &Outcome) -> Metrics {
    let error = common::Tally {
        k: o.failed,
        n: o.attempted,
    };
    let mut m = Metrics::default();
    m.put("devices_per_s", o.devices_per_s, "1/s");
    m.put(
        "samples_per_device",
        o.quality.samples_per_device(),
        "samples",
    );
    m.put("escape_rate", o.quality.escapes.rate(), "fraction");
    m.put("overkill_rate", o.quality.overkills.rate(), "fraction");
    m.put("error_rate", error.rate(), "fraction");
    m.put("rtt_p50_ms", quantile(&o.latency_ms, 0.5), "ms");
    m.put("rtt_p90_ms", quantile(&o.latency_ms, 0.9), "ms");
    m.put("setup_s", median(&o.setup_s), "s");
    m.put("peak_rss_mib", peak_rss_mib(), "MiB");
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <zoo_static|flash_dynamic|serve_tcp|serve_tcp_dynamic> \
                 [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let name = args.workload.label();
    println!(
        "perfbench {name}: seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", host_fingerprint());

    let result = if args.trace {
        traced(&args)
    } else {
        args.workload
            .run(args.seed, args.seconds, common::SETUP_REPS, None)
            .map(|o| {
                println!("{}", o.note);
                let m = end_to_end(&o);
                println!(
                    "record: {{\"workload\": {}, \"seed\": {}, \"report_checksum\": \"{:#018x}\", \
                     \"escapes\": \"{}\", \"overkills\": \"{}\", \"failed\": {}, \"attempted\": {}, \
                     \"latency_samples\": {}, \"setup_s\": {:?}}}",
                    json_str(name),
                    args.seed,
                    o.checksum,
                    o.quality.escapes,
                    o.quality.overkills,
                    o.failed,
                    o.attempted,
                    o.latency_ms.len(),
                    o.setup_s,
                );
                (m, o.attempted, o.failed)
            })
    };
    let (metrics, attempted, failed) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench {name}: {e}");
            return ExitCode::from(1);
        }
    };
    let correct = failed == 0 && attempted > 0 && metrics.all_finite();
    println!("metrics ({name}):");
    metrics.print_table();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench {name}: correctness check failed ({failed} of {attempted})");
        ExitCode::from(1)
    }
}

/// The traced run: the per-layer probes first (on a fresh heap), then
/// the workload untraced and again under spans — their `devices_per_s`
/// ratio is the tracing overhead. Spans are kept in memory and written
/// to `out/spans-<workload>-<seed>.jsonl` at the end.
fn traced(args: &Args) -> std::io::Result<(Metrics, u64, u64)> {
    let mut metrics = Metrics::default();
    let mut probe = layers::Probe::new(args.seed, Instant::now());
    probe.all(&mut metrics)?;
    let layers::Probe {
        mut spans,
        attempted,
        failed,
        ..
    } = probe;
    let untraced = args.workload.run(args.seed, args.seconds, 1, None)?;
    let traced = args
        .workload
        .run(args.seed, args.seconds, 1, Some(&mut spans))?;
    println!("{}\n{}", untraced.note, traced.note);
    metrics.put(
        "trace.devices_per_s_ratio",
        traced.devices_per_s / untraced.devices_per_s,
        "ratio",
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-{}.jsonl",
            args.workload.label(),
            args.seed
        ));
    spans.write_jsonl(&path)?;
    println!("wrote {} spans to {}", spans.len(), path.display());
    let attempted = attempted + untraced.attempted + traced.attempted;
    let failed = failed + untraced.failed + traced.failed;
    Ok((metrics, attempted, failed))
}
