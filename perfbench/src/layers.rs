//! The traced run's per-layer probes: each times calls into one layer's
//! public functions, from this file, on fleets drawn from the seed.
//!
//! | layer | calls timed |
//! |---|---|
//! | source | `SourceSpec::sample_transfer` per architecture; `Zoo::device` against `Screener::run_into` |
//! | engine | unsequenced `Screener::run`, 1 worker, pre-drawn devices |
//! | sequencer | sequenced against unsequenced `Screener::run` on the same fleet |
//! | pool | `Screener::workers(nproc)` against `workers(1)` |
//! | shard, ring | `ResidentShard::process` at the service burst; `ServiceHandle::submit` / `recv_verdict` |
//! | protocol | `ClientFrame` / `ServerFrame` encode and decode |
//! | tcp session | a short `serve_tcp` session's client-side timestamps |

use std::hint::black_box;
use std::time::Instant;

use bist_adc::transfer::TransferFunction;
use bist_core::backend::BehavioralBackend;
use bist_core::ring::Enqueue;
use bist_core::screener::{ScreenReport, Screener};
use bist_core::shard::{ResidentShard, ShardJob, ShardPlan, ShardVerdict};
use bist_core::source::{device_rng, Architecture, DeviceSource, SourceSpec, Zoo};
use bist_serve::protocol::{ClientFrame, ServerFrame};
use bist_serve::{submission_rng, JobKind, ServiceConfig, Submission};
use rand::rngs::StdRng;

use crate::common::{balanced_indices, median, mix, quantile, same_verdict, Tally};
use crate::inproc::{sequenced, Inproc};
use crate::trace::Spans;
use crate::{serve, Metrics};

/// Timing repetitions per probe; each figure is their median.
const REPS: usize = 5;
/// Probe fleets start here in the zoo's index space.
const PROBE_START: usize = 1 << 36;
/// Static probe fleet: devices per architecture.
const STATIC_PER_ARCH: usize = 256;
/// Dynamic probe fleet size.
const DYN_DEVICES: usize = 512;
/// Devices per architecture for the generation probe.
const SOURCE_DEVICES: [(Architecture, usize); 4] = [
    (Architecture::Flash, 2000),
    (Architecture::IidWidths, 4000),
    (Architecture::Sar, 150),
    (Architecture::Pipeline, 300),
];
/// The service's default burst.
const BURST: usize = 32;
/// Encode/decode iterations per repetition.
const CODEC_ITERS: u32 = 20_000;
/// Seconds of the TCP probe session.
const TCP_SECONDS: f64 = 2.0;

/// One pre-drawn device.
struct Device {
    tf: TransferFunction,
    rng: StdRng,
    arch: Architecture,
}

fn source_for(arch: Architecture) -> SourceSpec {
    match arch {
        Architecture::Flash => SourceSpec::paper_flash(),
        Architecture::IidWidths => SourceSpec::paper_iid(),
        Architecture::Sar => SourceSpec::paper_sar(),
        Architecture::Pipeline => SourceSpec::paper_pipeline(),
    }
}

/// The per-layer probes of one traced run, with their span log and
/// correctness tally.
pub struct Probe {
    seed: u64,
    nproc: usize,
    pub spans: Spans,
    pub attempted: u64,
    pub failed: u64,
}

impl Probe {
    pub fn new(seed: u64, origin: Instant) -> Self {
        Probe {
            seed,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            spans: Spans::new(origin),
            attempted: 0,
            failed: 0,
        }
    }

    /// Median seconds of `REPS` calls of `f`, each logged as a `name`
    /// span; returns the last call's result too.
    fn time<T>(&mut self, name: &'static str, mut f: impl FnMut() -> T) -> (f64, T) {
        let mut secs = Vec::with_capacity(REPS);
        let mut last = None;
        for rep in 0..REPS {
            let t0 = Instant::now();
            let out = black_box(f());
            let t1 = Instant::now();
            self.spans.record(name, rep as u64, None, t0, t1);
            secs.push((t1 - t0).as_secs_f64());
            last = Some(out);
        }
        (median(&secs), last.expect("REPS > 0"))
    }

    /// Counts a batch of checked results.
    fn check(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    /// Runs every probe, appending its metrics to `m`.
    pub fn all(&mut self, m: &mut Metrics) -> std::io::Result<()> {
        self.source(m);
        let zoo = Zoo::paper().with_seed(self.seed);
        let statics: Vec<Device> = balanced_indices(&zoo, PROBE_START, STATIC_PER_ARCH)
            .into_iter()
            .map(|i| Device {
                tf: zoo.device(i),
                rng: zoo.noise_rng(i),
                arch: zoo.architecture_of(i),
            })
            .collect();
        let flash = Inproc::FlashDynamic.zoo(self.seed);
        let dyns: Vec<Device> = (PROBE_START..PROBE_START + DYN_DEVICES)
            .map(|i| Device {
                tf: flash.device(i),
                rng: flash.noise_rng(i),
                arch: Architecture::Flash,
            })
            .collect();
        let static_full = self.engine_and_sequencer(m, "static", Inproc::ZooStatic, &statics);
        self.engine_and_sequencer(m, "dynamic", Inproc::FlashDynamic, &dyns);
        self.pool(m, &statics, &dyns, &zoo);
        self.shard_and_service(m, &statics, &static_full);
        self.protocol(m, &statics, &static_full);
        self.tcp(m)
    }

    fn source(&mut self, m: &mut Metrics) {
        for (arch, n) in SOURCE_DEVICES {
            let source = source_for(arch);
            let seed = self.seed;
            let (secs, _) = self.time("source.sample_transfer", || {
                (0..n)
                    .map(|i| source.sample_transfer(&mut device_rng(seed, i)))
                    .map(|tf| tf.transitions().len())
                    .sum::<usize>()
            });
            m.put(
                format!("source.us_per_device.{}", arch.label()),
                secs * 1e6 / n as f64,
                "us",
            );
        }
        // Generation's share of the zoo_static loop: the same slices,
        // drawn and screened as separate calls.
        let zoo = Inproc::ZooStatic.zoo(self.seed);
        let mut screener = sequenced(Inproc::ZooStatic.workload());
        let (mut generate, mut screen) = (0.0, 0.0);
        let mut out = Vec::new();
        for slice in 0..8 {
            let from = PROBE_START + (1 << 20) + slice * 128;
            let t0 = Instant::now();
            let fleet: Vec<_> = (from..from + 128)
                .map(|i| (zoo.device(i), zoo.noise_rng(i)))
                .collect();
            let t1 = Instant::now();
            out.clear();
            screener.run_into(fleet, &mut out);
            let t2 = Instant::now();
            let parent = self
                .spans
                .record("probe.zoo_slice", slice as u64, None, t0, t2);
            self.spans
                .record("source.generate", slice as u64, Some(parent), t0, t1);
            self.spans
                .record("screener.run_into", slice as u64, Some(parent), t1, t2);
            generate += (t1 - t0).as_secs_f64();
            screen += (t2 - t1).as_secs_f64();
            self.check(128, 128 - out.len().min(128));
        }
        m.put(
            "source.share.zoo_static",
            generate / (generate + screen),
            "fraction",
        );
    }

    /// Engine (unsequenced) and sequencer (sequenced against it)
    /// figures for one workload; returns the unsequenced reports.
    fn engine_and_sequencer(
        &mut self,
        m: &mut Metrics,
        tag: &str,
        kind: Inproc,
        fleet: &[Device],
    ) -> Vec<ScreenReport> {
        let n = fleet.len() as f64;
        let pairs = || fleet.iter().map(|d| (&d.tf, d.rng.clone()));
        let mut full_screener = Screener::new(kind.workload()).workers(1);
        let (full_s, full) = self.time("engine.run", || full_screener.run(pairs()));
        let mut seq_screener = sequenced(kind.workload());
        let (seq_s, seq) = self.time("sequencer.run", || seq_screener.run(pairs()));
        self.check(
            2 * fleet.len(),
            2 * fleet.len() - full.len().min(fleet.len()) - seq.len().min(fleet.len()),
        );
        let full_samples: u64 = full.iter().map(|r| r.verdict.samples()).sum();
        let seq_samples: u64 = seq.iter().map(|r| r.verdict.samples()).sum();
        let early = seq.iter().filter(|r| r.verdict.stopped_early()).count();
        m.put(
            format!("engine.{tag}.us_per_device"),
            full_s * 1e6 / n,
            "us",
        );
        m.put(
            format!("engine.{tag}.ns_per_sample"),
            full_s * 1e9 / full_samples.max(1) as f64,
            "ns",
        );
        m.put(
            format!("sequencer.{tag}.samples_ratio"),
            seq_samples as f64 / full_samples.max(1) as f64,
            "ratio",
        );
        m.put(
            format!("sequencer.{tag}.time_ratio"),
            seq_s / full_s,
            "ratio",
        );
        m.put(
            format!("sequencer.{tag}.early_stop_fraction"),
            early as f64 / n,
            "fraction",
        );
        if kind == Inproc::ZooStatic {
            // Drift against the full sweep, per architecture: type I =
            // full accepts, sequenced rejects; type II the reverse.
            let mut drift = [[Tally::default(); Architecture::COUNT]; 2];
            for ((d, f), s) in fleet.iter().zip(&full).zip(&seq) {
                let a = d.arch.index();
                if f.verdict.accepted() {
                    drift[0][a].add(!s.verdict.accepted());
                } else {
                    drift[1][a].add(s.verdict.accepted());
                }
            }
            for (name, tallies) in ["drift_i", "drift_ii"].iter().zip(&drift) {
                for arch in Architecture::ALL {
                    m.put(
                        format!("sequencer.static.{name}.{}", arch.label()),
                        tallies[arch.index()].rate(),
                        "fraction",
                    );
                }
            }
        }
        full
    }

    fn pool(&mut self, m: &mut Metrics, statics: &[Device], dyns: &[Device], zoo: &Zoo) {
        let nproc = self.nproc;
        for (tag, kind, fleet) in [
            ("static", Inproc::ZooStatic, statics),
            ("dynamic", Inproc::FlashDynamic, dyns),
        ] {
            let pairs = || fleet.iter().map(|d| (&d.tf, d.rng.clone()));
            let mut one = Screener::new(kind.workload()).workers(1);
            let mut all = Screener::new(kind.workload()).workers(nproc);
            let (t1, a) = self.time("pool.workers_1", || one.run(pairs()));
            let (tn, b) = self.time("pool.workers_n", || all.run(pairs()));
            let differ = a
                .iter()
                .zip(&b)
                .filter(|(x, y)| !same_verdict(&x.verdict, &y.verdict))
                .count();
            self.check(fleet.len(), differ + fleet.len() - b.len().min(fleet.len()));
            m.put(format!("pool.speedup.{tag}"), t1 / tn, "x");
        }
        // The zoo_static loop itself: generation inside the fleet
        // iterator, sequenced screening, 1 against nproc workers.
        let from = PROBE_START + (2 << 20);
        let lazy = || (from..from + 512).map(|i| (zoo.device(i), zoo.noise_rng(i)));
        let mut one = sequenced(Inproc::ZooStatic.workload());
        let mut all = sequenced(Inproc::ZooStatic.workload()).workers(nproc);
        let (t1, _) = self.time("pool.zoo_workers_1", || one.run(lazy()).len());
        let (tn, _) = self.time("pool.zoo_workers_n", || all.run(lazy()).len());
        m.put("pool.speedup.zoo_static", t1 / tn, "x");
    }

    fn shard_and_service(&mut self, m: &mut Metrics, statics: &[Device], full: &[ScreenReport]) {
        let workload = Inproc::ZooStatic.workload();
        let plan = ShardPlan::for_workload(workload);
        let mut shard: ResidentShard<TransferFunction, StdRng, BehavioralBackend> =
            ResidentShard::new(&plan, BehavioralBackend);
        let mut verdicts: Vec<ShardVerdict> = Vec::with_capacity(statics.len());
        let mut reps = Vec::with_capacity(REPS);
        for rep in 0..REPS {
            verdicts.clear();
            let mut busy = 0.0;
            for (b, burst) in statics.chunks(BURST).enumerate() {
                let jobs: Vec<_> = burst
                    .iter()
                    .enumerate()
                    .map(|(j, d)| ShardJob {
                        id: (b * BURST + j) as u64,
                        kind: JobKind::Static,
                        adc: d.tf.clone(),
                        rng: d.rng.clone(),
                    })
                    .collect();
                let t0 = Instant::now();
                shard.process(jobs, |v| verdicts.push(v));
                let t1 = Instant::now();
                self.spans.record("shard.process", rep as u64, None, t0, t1);
                busy += (t1 - t0).as_secs_f64();
            }
            reps.push(busy);
        }
        verdicts.sort_by_key(|v| v.id);
        let differ = verdicts
            .iter()
            .zip(full)
            .filter(|(v, r)| !same_verdict(&v.verdict, &r.verdict))
            .count();
        self.check(
            statics.len(),
            differ + statics.len() - verdicts.len().min(statics.len()),
        );
        m.put(
            "shard.us_per_device",
            median(&reps) * 1e6 / statics.len() as f64,
            "us",
        );

        // The in-process door: closed-loop round trips, then a window of
        // submissions in flight (the bulk connection's shape).
        let handle = ServiceConfig::new()
            .with_workload(workload)
            .with_workers(1)
            .start();
        let seed = self.seed;
        let sub = |k: usize| Submission {
            id: k as u64,
            kind: JobKind::Static,
            adc: statics[k % statics.len()].tf.clone(),
            seed: mix(seed, &[0x1a9c, k as u64]),
        };
        let mut rtt_us = Vec::new();
        for k in 0..256 {
            let s = sub(k);
            let t0 = Instant::now();
            let accepted = handle.submit(s).is_accepted();
            let got = handle.recv_verdict();
            let t1 = Instant::now();
            self.spans
                .record("service.round_trip", k as u64, None, t0, t1);
            rtt_us.push((t1 - t0).as_secs_f64() * 1e6);
            self.check(
                1,
                usize::from(!accepted || got.map(|v| v.id) != Some(k as u64)),
            );
        }
        m.put("service.inproc_rtt_us.p50", quantile(&rtt_us, 0.5), "us");

        let total = 4096;
        let window = serve::STATIC_TCP.window;
        let mut got = Vec::with_capacity(total);
        let t0 = Instant::now();
        let mut next = 0;
        while got.len() < total {
            while next < total && next - got.len() < window {
                match handle.submit(sub(next)) {
                    Enqueue::Accepted => next += 1,
                    _ => break,
                }
            }
            match handle.recv_verdict() {
                Some(v) => got.push(v),
                None => break,
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        self.spans
            .record("service.window", 0, None, t0, Instant::now());
        m.put(
            "service.inproc_devices_per_s",
            got.len() as f64 / secs,
            "1/s",
        );
        got.sort_by_key(|v| v.id);
        let reference = Screener::new(workload).workers(1).run((0..total).map(|k| {
            let s = sub(k);
            (s.adc, submission_rng(s.seed))
        }));
        let differ = got
            .iter()
            .zip(&reference)
            .filter(|(v, r)| !same_verdict(&v.verdict, &r.verdict))
            .count();
        self.check(total, differ + total - got.len().min(total));
        handle.shutdown();
    }

    fn protocol(&mut self, m: &mut Metrics, statics: &[Device], full: &[ScreenReport]) {
        let submit = ClientFrame::Submit(Submission {
            id: 7,
            kind: JobKind::Static,
            adc: statics[0].tf.clone(),
            seed: self.seed,
        });
        let verdict = ServerFrame::Verdict(ShardVerdict {
            id: 7,
            verdict: full[0].verdict,
        });
        let mut buf = Vec::new();
        let (enc_s, _) = self.time("protocol.encode_submit", || {
            for _ in 0..CODEC_ITERS {
                submit.encode(black_box(&mut buf));
            }
            buf.len()
        });
        let submit_bytes = buf.len() + 4;
        let (dec_s, decoded) = self.time("protocol.decode_submit", || {
            let mut last = None;
            for _ in 0..CODEC_ITERS {
                last = Some(ClientFrame::decode(black_box(&buf)));
            }
            last.expect("iterations > 0")
        });
        let mut vbuf = Vec::new();
        verdict.encode(&mut vbuf);
        let (vdec_s, vdecoded) = self.time("protocol.decode_verdict", || {
            let mut last = None;
            for _ in 0..CODEC_ITERS {
                last = Some(ServerFrame::decode(black_box(&vbuf)));
            }
            last.expect("iterations > 0")
        });
        let round_trips =
            usize::from(decoded.ok() == Some(submit)) + usize::from(vdecoded.ok() == Some(verdict));
        self.check(2, 2 - round_trips);
        let per = |s: f64| s * 1e9 / f64::from(CODEC_ITERS);
        m.put("protocol.submit_bytes", submit_bytes as f64, "bytes");
        m.put("protocol.encode_ns.submit", per(enc_s), "ns");
        m.put("protocol.decode_ns.submit", per(dec_s), "ns");
        m.put("protocol.decode_ns.verdict", per(vdec_s), "ns");
    }

    fn tcp(&mut self, m: &mut Metrics) -> std::io::Result<()> {
        let (outcome, split) = serve::run(
            self.seed,
            TCP_SECONDS,
            1,
            serve::PROBE,
            Some(&mut self.spans),
        )?;
        self.check(outcome.attempted as usize, outcome.failed as usize);
        m.put(
            "tcp.submit_to_ack_ms.p50",
            median(&split.submit_to_ack_ms),
            "ms",
        );
        m.put(
            "tcp.ack_to_verdict_ms.p50",
            median(&split.ack_to_verdict_ms),
            "ms",
        );
        m.put("tcp.frames_per_device", split.frames_per_device, "count");
        Ok(())
    }
}
