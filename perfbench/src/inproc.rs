//! The in-process workloads, `zoo_static` and `flash_dynamic`: one
//! resident sequenced [`Screener`] on one worker, fed consecutive zoo
//! slices through `run_into`, with device generation inside the timed
//! loop.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use bist_adc::spec::LinearitySpec;
use bist_adc::transfer::TransferFunction;
use bist_core::dynamic::DynamicConfig;
use bist_core::screener::{ScreenVerdict, Screener, Workload};
use bist_core::sequencer::SequencerConfig;
use bist_core::source::{SourceSpec, Zoo};

use crate::common::{
    balanced_indices, median, mix, paper_config, same_verdict, Dealer, Fnv, Quality,
};
use crate::trace::Spans;
use crate::Outcome;

/// Devices per `run_into` call — one tester hand-off, and the unit of
/// the in-process latency figures.
pub const SLICE: usize = 256;

/// Picks of the seeded sample re-screened through `screen_one` (fewer
/// devices when two picks coincide).
const CHECK_SAMPLE: u64 = 256;

/// The warm-up pass screens zoo devices from here on, far from the
/// measured indices.
const WARMUP_START: usize = 1 << 40;

const CHECK_SALT: u64 = 0x5c4e_c4ec;

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inproc {
    /// `Zoo::paper()` through the static ramp under the default
    /// sequencer; the reference is the exact transfer function.
    ZooStatic,
    /// Paper flash devices through the coherent-sine record under the
    /// default sequencer; the reference is the unsequenced verdict.
    FlashDynamic,
}

impl Inproc {
    pub fn zoo(self, seed: u64) -> Zoo {
        match self {
            Inproc::ZooStatic => Zoo::paper(),
            Inproc::FlashDynamic => Zoo::new(vec![SourceSpec::paper_flash()]),
        }
        .with_seed(seed)
    }

    pub fn workload(self) -> Workload {
        match self {
            Inproc::ZooStatic => Workload::static_ramp(paper_config()),
            Inproc::FlashDynamic => Workload::dynamic_sine(DynamicConfig::paper_default()),
        }
    }

    /// Devices per second the workload screened on the reference host
    /// (2 shared Xeon cores): `--seconds` sets the run's fixed device
    /// count through it, so a run screens a fixed number of devices,
    /// never a fixed duration.
    fn nominal_rate(self) -> f64 {
        match self {
            Inproc::ZooStatic => 3300.0,
            Inproc::FlashDynamic => 9500.0,
        }
    }

    /// The devices a run of `seconds` screens, in whole slices.
    pub fn devices_for(self, seconds: f64) -> usize {
        ((seconds * self.nominal_rate()) as usize / SLICE).max(1) * SLICE
    }

    /// Most devices the quality metrics cover: the unsequenced dynamic
    /// reference costs as much as the run, so it is capped.
    fn quality_cap(self) -> usize {
        match self {
            Inproc::ZooStatic => usize::MAX,
            Inproc::FlashDynamic => 16 * 1024,
        }
    }

    /// Warm-up devices per architecture (a fixed census): about a
    /// second of work, so `setup_s` is not a millisecond-scale reading.
    fn warmup_per_arch(self) -> usize {
        match self {
            Inproc::ZooStatic => 1024,
            Inproc::FlashDynamic => 8192,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Inproc::ZooStatic => "zoo_static",
            Inproc::FlashDynamic => "flash_dynamic",
        }
    }
}

/// A one-worker sequenced screener for `workload`.
pub fn sequenced(workload: Workload) -> Screener {
    Screener::new(workload)
        .sequencer(SequencerConfig::default())
        .workers(1)
}

/// Everything before the first timed device: the zoo, the resident
/// screener and a warm-up pass over a fixed census of devices.
fn set_up(kind: Inproc, seed: u64) -> (Zoo, Screener) {
    let zoo = kind.zoo(seed);
    let mut screener = sequenced(kind.workload());
    let warm = balanced_indices(&zoo, WARMUP_START, kind.warmup_per_arch());
    let mut out = Vec::with_capacity(warm.len());
    screener.run_into(
        warm.iter().map(|&i| (zoo.device(i), zoo.noise_rng(i))),
        &mut out,
    );
    black_box(&out);
    (zoo, screener)
}

/// Runs the workload: `setup_reps` timed set-ups, then the fixed device
/// count for `seconds` in consecutive slices, each with the same
/// architecture census. A slice is drawn and screened inside the timed
/// window (under `source.generate` / `screener.run_into` spans when
/// `spans` is given) and scored after it, so the run holds one slice of
/// devices at a time. The quality metrics and the checksum cover the
/// first `quality_cap` devices.
pub fn run(
    kind: Inproc,
    seed: u64,
    seconds: f64,
    setup_reps: usize,
    mut spans: Option<&mut Spans>,
) -> Outcome {
    let mut setup_s = Vec::with_capacity(setup_reps);
    let mut ready = None;
    for _ in 0..setup_reps.max(1) {
        drop(ready.take());
        let t = Instant::now();
        ready = Some(set_up(kind, seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (zoo, mut screener) = ready.expect("at least one set-up");

    let mut dealer = Dealer::new(&zoo, 0);
    let per_arch = SLICE / dealer.kinds();
    let slice_len = per_arch * dealer.kinds();
    let slices = kind.devices_for(seconds) / SLICE;
    let quality_n = (slices * slice_len).min(kind.quality_cap());
    let sample: BTreeSet<usize> = (0..CHECK_SAMPLE)
        .map(|j| (mix(seed, &[CHECK_SALT, j]) % quality_n as u64) as usize)
        .collect();
    let spec = LinearitySpec::paper_stringent();
    let mut unsequenced = Screener::new(kind.workload()).workers(1);
    let mut scalar = sequenced(kind.workload());

    let mut quality = Quality::default();
    let mut fnv = Fnv::new();
    let (mut failed, mut disagree) = (0u64, 0u64);
    let mut slice_s = Vec::with_capacity(slices);
    let mut indices = Vec::with_capacity(slice_len);
    let mut tfs: Vec<TransferFunction> = Vec::with_capacity(slice_len);
    let mut out = Vec::with_capacity(slice_len);
    let mut got: Vec<Option<ScreenVerdict>> = Vec::with_capacity(slice_len);
    for slice in 0..slices {
        let t0 = Instant::now();
        indices.clear();
        dealer.take(per_arch, &mut indices);
        tfs.clear();
        tfs.extend(indices.iter().map(|&i| zoo.device(i)));
        let t1 = Instant::now();
        out.clear();
        screener.run_into(
            tfs.iter()
                .zip(&indices)
                .map(|(tf, &i)| (tf, zoo.noise_rng(i))),
            &mut out,
        );
        let t2 = Instant::now();
        slice_s.push((t2 - t0).as_secs_f64());
        if let Some(log) = spans.as_deref_mut() {
            let trace = slice as u64;
            let parent = log.record("slice", trace, None, t0, t2);
            log.record("source.generate", trace, Some(parent), t0, t1);
            log.record("screener.run_into", trace, Some(parent), t1, t2);
        }

        // Score the slice outside the timed window.
        got.clear();
        got.resize(slice_len, None);
        for r in &out {
            match got.get_mut(r.device) {
                Some(slot @ None) => *slot = Some(r.verdict),
                _ => failed += 1,
            }
        }
        let base = slice * slice_len;
        if base >= quality_n {
            failed += got.iter().filter(|g| g.is_none()).count() as u64;
            continue;
        }
        let reference: Vec<bool> = match kind {
            Inproc::ZooStatic => tfs.iter().map(|tf| spec.classify(tf).good).collect(),
            Inproc::FlashDynamic => {
                let mut good = vec![false; slice_len];
                for r in unsequenced.run(
                    tfs.iter()
                        .zip(&indices)
                        .map(|(tf, &i)| (tf, zoo.noise_rng(i))),
                ) {
                    good[r.device] = r.verdict.accepted();
                }
                good
            }
        };
        for (j, verdict) in got.iter().enumerate() {
            let Some(v) = verdict else {
                failed += 1;
                continue;
            };
            if base + j >= quality_n {
                continue;
            }
            quality.add(reference[j], v);
            fnv.fold(indices[j] as u64, v);
            if sample.contains(&(base + j)) {
                let again = scalar.screen_one(&tfs[j], &mut zoo.noise_rng(indices[j]));
                disagree += u64::from(!same_verdict(v, &again));
            }
        }
    }
    failed += disagree;
    let attempted = (slices * slice_len) as u64;

    // No connection carries these verdicts: the submit → verdict wait a
    // caller sees is one slice, drawn and screened.
    let latency_ms: Vec<f64> = slice_s.iter().map(|s| s * 1e3).collect();
    let median_slice_s = median(&slice_s);
    let note = format!(
        "{}: {slices} slices of {slice_len} ({per_arch} per architecture) in {:.2} s busy; \
         quality window {quality_n} devices: escapes {}, overkills {}; \
         screen_one re-check {}/{} agree; median slice {:.2} ms",
        kind.label(),
        slice_s.iter().sum::<f64>(),
        quality.escapes,
        quality.overkills,
        sample.len() as u64 - disagree,
        sample.len(),
        median_slice_s * 1e3,
    );
    Outcome {
        // Every slice has the same census, so slices are alike; the
        // median slice discards the few a co-tenant burst slowed.
        devices_per_s: slice_len as f64 / median_slice_s,
        quality,
        attempted,
        failed,
        latency_ms,
        setup_s,
        checksum: fnv.finish(),
        note,
    }
}
