//! Differential fleet validation of the behavioural↔RTL verdict seam:
//! one harness over four grids of cells.
//!
//! The streaming engine judges devices through pluggable backends
//! (`bist_core::backend`): the behavioural accumulators the fleet runs
//! in production, and the gate-accurate `bist_rtl::BistTop` /
//! `bist_rtl::DynBistTop`. [`run`] screens every device × cell of a
//! [`Grid`] through both on the *same* code streams and demands that
//! they latch the same outcome. Each cell carries its settings as data
//! — workload (noise, slope error), device source, RNG-stream scheme
//! and optional early-stop sequencer — so one loop serves four grids:
//!
//! * [`scenario_grid`] — a batch's devices × counter widths 4–7 ×
//!   deglitch on/off × noise point, at one ramp slope error (driven by
//!   the `rtl_fleet` binary);
//! * [`dyn_scenario_grid`] — flash devices × resolution × mismatch σ ×
//!   coherent-bin choice (`dyn_fleet`);
//! * [`seq_scenario_grid`] — static and dynamic cells under the
//!   sequencer (`seq_fleet`);
//! * [`arch_scenario_grid`] — every zoo architecture × counter width
//!   under the sequencer (`arch_fleet`), whose tallies seed a
//!   [`PriorsBank`].
//!
//! Agreement means both backends latch the same sequencer decision,
//! device decision and sample count, *and* the same verdict: every
//! field of a static verdict, or the per-limit decisions, sample count
//! and completeness of a dynamic one (the raw dB metrics may differ by
//! the RTL's bounded fixed-point quantisation; an early-stopped record
//! is judged on its latch alone). Any disagreement is a [`Divergence`]
//! and fails the driving binary. The static equivalence holds because
//! every sweep dwells past its last transition (10-LSB overshoot),
//! which is exactly the drain contract the RTL needs to flush its
//! synchroniser latency — see `bist_core::backend` for the fine print.
//!
//! Sequenced cells add a third run per device, the full behavioural
//! sweep, as ground truth: the sequenced decision is scored against it
//! for empirical type I/II drift and samples-to-decision. Unsequenced
//! cells are their own ground truth, so they tally no early stops and
//! no drift.

use crate::batch::Batch;
use crate::parallel::partitioned;
use bist_adc::flash::FlashConfig;
use bist_adc::noise::NoiseConfig;
use bist_adc::spec::LinearitySpec;
use bist_adc::transfer::TransferFunction;
use bist_adc::types::{Resolution, Volts};
use bist_core::analytic::WidthDistribution;
use bist_core::backend::RtlBackend;
use bist_core::config::BistConfig;
use bist_core::dynamic::{DynamicConfig, DynamicVerdict};
use bist_core::priors::{PriorsBank, SeqTally};
use bist_core::screener::{ScreenVerdict, Screener, Workload};
use bist_core::sequencer::{SeqDecision, SequencerConfig};
use bist_core::source::{
    device_rng, stream_rng, Architecture, DeviceSource, IidWidthSource, SourceSpec,
};
use rand::rngs::StdRng;
use std::fmt;

/// The acquisition noise points of the static sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum NoisePoint {
    /// The §3 theory setting: no noise at all.
    Noiseless,
    /// Comparator transition noise (the §3 toggle mechanism, ~0.04 LSB
    /// at the paper's 0.1 V LSB) — the deglitcher's raison d'être.
    Transition,
    /// Input noise + transition noise + aperture jitter together.
    Mixed,
}

impl NoisePoint {
    /// All sweep points.
    pub const ALL: [NoisePoint; 3] = [
        NoisePoint::Noiseless,
        NoisePoint::Transition,
        NoisePoint::Mixed,
    ];

    /// The acquisition noise this point injects.
    pub fn config(self) -> NoiseConfig {
        match self {
            NoisePoint::Noiseless => NoiseConfig::noiseless(),
            NoisePoint::Transition => NoiseConfig::noiseless().with_transition_noise(0.004),
            NoisePoint::Mixed => NoiseConfig::noiseless()
                .with_input_noise(0.002)
                .with_transition_noise(0.003)
                .with_jitter(1e-7),
        }
    }

    /// Stable label for reports and CSV artifacts.
    pub fn label(self) -> &'static str {
        match self {
            NoisePoint::Noiseless => "noiseless",
            NoisePoint::Transition => "transition",
            NoisePoint::Mixed => "mixed",
        }
    }
}

/// What one grid cell varies — the key of its [`Tally`] and its label
/// in reports and CSV artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellId {
    /// A static-linearity (ramp) cell.
    Static {
        /// The device architecture the cell draws from.
        arch: Architecture,
        /// Counter width in bits.
        counter_bits: u32,
        /// Code-width mismatch σ_w in milli-LSB of the cell's own
        /// iid-width devices (`None` for a batch's devices).
        sigma_milli_lsb: Option<u32>,
        /// Whether the deglitch filters are in the datapath.
        deglitch: bool,
        /// Acquisition noise point.
        noise: NoisePoint,
    },
    /// A dynamic (coherent-record) cell over flash devices.
    Dynamic {
        /// Converter resolution in bits.
        resolution_bits: u32,
        /// Code-width mismatch σ_w in milli-LSB.
        sigma_milli_lsb: u32,
        /// Sine cycles per record (= the fundamental bin).
        cycles: u32,
    },
    /// A static cell drawing paper-preset devices of one named zoo
    /// architecture — the per-architecture validation that feeds
    /// [`bist_core::priors`].
    Arch {
        /// The device architecture the cell draws from.
        arch: Architecture,
        /// Counter width in bits.
        counter_bits: u32,
    },
}

impl CellId {
    /// The device architecture this cell draws from.
    pub fn architecture(&self) -> Architecture {
        match self {
            CellId::Static { arch, .. } | CellId::Arch { arch, .. } => *arch,
            CellId::Dynamic { .. } => Architecture::Flash,
        }
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellId::Static {
                counter_bits,
                sigma_milli_lsb,
                deglitch,
                noise,
                ..
            } => {
                write!(f, "static/{counter_bits}-bit/")?;
                if let Some(sigma) = sigma_milli_lsb {
                    write!(f, "σ0.{sigma:03}/")?;
                }
                let filters = if *deglitch { "deglitch" } else { "raw" };
                write!(f, "{filters}/{}", noise.label())
            }
            CellId::Dynamic {
                resolution_bits,
                sigma_milli_lsb,
                cycles,
            } => write!(
                f,
                "dynamic/{resolution_bits}-bit/σ0.{sigma_milli_lsb:03}/{cycles}c"
            ),
            CellId::Arch { arch, counter_bits } => {
                write!(f, "arch/{}/{counter_bits}-bit", arch.label())
            }
        }
    }
}

/// A device/cell where the two backends disagreed, with both verdicts
/// for the post-mortem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Divergence {
    /// Device index within the sweep.
    pub device: usize,
    /// The sweep cell.
    pub cell: CellId,
    /// What the behavioural path latched.
    pub behavioral: ScreenVerdict,
    /// What the gate-accurate path latched.
    pub rtl: ScreenVerdict,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device {} [{}]: behavioral {:?} vs rtl {:?}",
            self.device, self.cell, self.behavioral, self.rtl
        )
    }
}

/// Per-cell accounting. The "sequenced" figures are the behavioural
/// path's; for an unsequenced cell they equal the full-sweep figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// The sweep cell.
    pub cell: CellId,
    /// Devices compared in this cell.
    pub comparisons: u64,
    /// Devices whose backends agreed.
    pub agreements: u64,
    /// Sequenced runs that stopped before the full stimulus.
    pub early_stops: u64,
    /// Early stops that accepted the device.
    pub early_accepts: u64,
    /// Early stops that rejected the device.
    pub early_rejects: u64,
    /// Sequenced samples over early-stopping runs only.
    pub seq_samples_early: u64,
    /// Devices the full sweep accepts (ground truth).
    pub full_accepted: u64,
    /// Sequencer rejected a device the full sweep accepts.
    pub drift_i: u64,
    /// Sequencer accepted a device the full sweep rejects.
    pub drift_ii: u64,
    /// Total full-sweep samples (ground truth cost).
    pub full_samples: u64,
    /// Total sequenced samples.
    pub seq_samples: u64,
    /// Full-sweep samples over ground-truth-accepted devices.
    pub full_samples_accepted: u64,
    /// Sequenced samples over ground-truth-accepted devices.
    pub seq_samples_accepted: u64,
}

impl Tally {
    fn new(cell: CellId) -> Self {
        Tally {
            cell,
            comparisons: 0,
            agreements: 0,
            early_stops: 0,
            early_accepts: 0,
            early_rejects: 0,
            seq_samples_early: 0,
            full_accepted: 0,
            drift_i: 0,
            drift_ii: 0,
            full_samples: 0,
            seq_samples: 0,
            full_samples_accepted: 0,
            seq_samples_accepted: 0,
        }
    }

    /// Scores one device: whether the backends agreed, the behavioural
    /// outcome and the full-sweep ground truth.
    fn record(&mut self, agree: bool, seq: &ScreenVerdict, truth: &ScreenVerdict) {
        let samples = seq.samples();
        self.comparisons += 1;
        self.agreements += u64::from(agree);
        self.early_stops += u64::from(seq.stopped_early());
        match seq.decision() {
            SeqDecision::AcceptEarly(_) => self.early_accepts += 1,
            SeqDecision::RejectEarly(_) => self.early_rejects += 1,
            SeqDecision::Continue => {}
        }
        if seq.stopped_early() {
            self.seq_samples_early += samples;
        }
        self.full_samples += truth.samples();
        self.seq_samples += samples;
        if truth.accepted() {
            self.full_accepted += 1;
            self.full_samples_accepted += truth.samples();
            self.seq_samples_accepted += samples;
            self.drift_i += u64::from(!seq.accepted());
        } else {
            self.drift_ii += u64::from(seq.accepted());
        }
    }

    fn absorb(&mut self, o: &Tally) {
        debug_assert_eq!(self.cell, o.cell);
        self.comparisons += o.comparisons;
        self.agreements += o.agreements;
        self.early_stops += o.early_stops;
        self.early_accepts += o.early_accepts;
        self.early_rejects += o.early_rejects;
        self.seq_samples_early += o.seq_samples_early;
        self.full_accepted += o.full_accepted;
        self.drift_i += o.drift_i;
        self.drift_ii += o.drift_ii;
        self.full_samples += o.full_samples;
        self.seq_samples += o.seq_samples;
        self.full_samples_accepted += o.full_samples_accepted;
        self.seq_samples_accepted += o.seq_samples_accepted;
    }

    /// Mean samples-to-decision reduction in this cell (full / seq).
    pub fn reduction(&self) -> f64 {
        ratio(self.full_samples, self.seq_samples)
    }
}

/// `num / den`, or 0 for an empty denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Outcome of a differential sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DifferentialResult {
    /// Devices swept.
    pub devices: u64,
    /// Every backend disagreement observed.
    pub divergences: Vec<Divergence>,
    /// Accounting per valid cell (stable grid order).
    pub per_cell: Vec<Tally>,
    /// Candidate cells rejected by config validation, with the reason —
    /// never screened and excluded from every figure.
    pub skipped_cells: Vec<(CellId, String)>,
}

impl DifferentialResult {
    fn sum(&self, f: impl Fn(&Tally) -> u64) -> u64 {
        self.per_cell.iter().map(f).sum()
    }

    /// Total (device × valid cell) comparisons.
    pub fn comparisons(&self) -> u64 {
        self.sum(|t| t.comparisons)
    }

    /// Comparisons whose backends agreed.
    pub fn agreements(&self) -> u64 {
        self.sum(|t| t.agreements)
    }

    /// Whether the sweep found no backend divergence at all.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty() && self.agreements() == self.comparisons()
    }

    /// Fraction of comparisons whose backends agreed.
    pub fn agreement_rate(&self) -> f64 {
        ratio(self.agreements(), self.comparisons())
    }

    /// Empirical type I drift rate: P(sequencer rejects | full sweep
    /// accepts).
    pub fn type_i_drift(&self) -> f64 {
        ratio(self.sum(|t| t.drift_i), self.sum(|t| t.full_accepted))
    }

    /// Empirical type II drift rate: P(sequencer accepts | full sweep
    /// rejects).
    pub fn type_ii_drift(&self) -> f64 {
        let bad = self.comparisons() - self.sum(|t| t.full_accepted);
        ratio(self.sum(|t| t.drift_ii), bad)
    }

    /// Mean samples-to-decision reduction over all devices.
    pub fn reduction_overall(&self) -> f64 {
        ratio(self.sum(|t| t.full_samples), self.sum(|t| t.seq_samples))
    }

    /// Mean samples-to-decision reduction over ground-truth-accepted
    /// (passing) devices — the headline figure: even devices that must
    /// be accepted stop early.
    pub fn reduction_accepted(&self) -> f64 {
        ratio(
            self.sum(|t| t.full_samples_accepted),
            self.sum(|t| t.seq_samples_accepted),
        )
    }

    /// Mean samples-to-decision reduction over ground-truth-rejected
    /// devices.
    pub fn reduction_rejected(&self) -> f64 {
        ratio(
            self.sum(|t| t.full_samples - t.full_samples_accepted),
            self.sum(|t| t.seq_samples - t.seq_samples_accepted),
        )
    }

    /// Fraction of sequenced runs that stopped early.
    pub fn early_stop_rate(&self) -> f64 {
        ratio(self.sum(|t| t.early_stops), self.comparisons())
    }

    /// Folds every cell's sequenced accounting into a priors bank,
    /// keyed by the cell's device architecture. This is the feedback
    /// edge of the zoo: differential sweeps measure per-architecture
    /// samples-to-decision, the bank turns that into
    /// architecture-conditioned sequencer hints.
    pub fn seed_priors(&self, bank: &mut PriorsBank) {
        for t in &self.per_cell {
            bank.absorb(
                t.cell.architecture(),
                SeqTally {
                    runs: t.comparisons,
                    early_accepts: t.early_accepts,
                    early_rejects: t.early_rejects,
                    seq_samples: t.seq_samples,
                    seq_samples_early: t.seq_samples_early,
                    full_samples: t.full_samples,
                },
            );
        }
    }

    /// Merges a partial result from another worker (cell-wise; both
    /// sides come from the same grid).
    fn merge(&mut self, other: &DifferentialResult) {
        self.devices += other.devices;
        self.divergences.extend_from_slice(&other.divergences);
        if self.per_cell.is_empty() {
            self.per_cell = other.per_cell.clone();
            self.skipped_cells = other.skipped_cells.clone();
        } else {
            debug_assert_eq!(self.per_cell.len(), other.per_cell.len());
            for (mine, theirs) in self.per_cell.iter_mut().zip(&other.per_cell) {
                mine.absorb(theirs);
            }
        }
    }
}

impl fmt::Display for DifferentialResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} devices × {} cells: {}/{} backend latches agree \
             ({} divergences, {:.0}% early stops, {:.2}x samples overall, \
             drift I {:.2e} / II {:.2e})",
            self.devices,
            self.per_cell.len(),
            self.agreements(),
            self.comparisons(),
            self.divergences.len(),
            100.0 * self.early_stop_rate(),
            self.reduction_overall(),
            self.type_i_drift(),
            self.type_ii_drift(),
        )
    }
}

/// Where a cell's devices and acquisition noise come from.
#[derive(Debug, Clone, Copy)]
enum Streams {
    /// Device `i` is the batch's device — drawn once from
    /// `device_rng(seed, i)` and shared by every cell — with cell `c`'s
    /// noise from `device_rng(seed, i ^ DIFF_SALT ^ c << 24)`.
    Shared { seed: u64 },
    /// Every cell draws its own device and noise:
    /// `stream_rng(seed, [salt, i, c])`.
    PerCell {
        seed: u64,
        device_salt: u64,
        noise_salt: u64,
    },
}

/// RNG-stream salt decorrelating the shared-device noise streams from
/// device generation and the other experiments.
const DIFF_SALT: usize = 0xd1ff_0000;

impl Streams {
    fn device(self, device: usize, cell: usize) -> StdRng {
        match self {
            Streams::Shared { seed } => device_rng(seed, device),
            Streams::PerCell {
                seed, device_salt, ..
            } => stream_rng(seed, &[device_salt, device as u64, cell as u64]),
        }
    }

    fn noise(self, device: usize, cell: usize) -> StdRng {
        match self {
            // Cell stride 2^24: overflow-free even on 32-bit targets
            // (cell < 48) and collision-free below 16M devices.
            Streams::Shared { seed } => device_rng(seed, device ^ DIFF_SALT ^ (cell << 24)),
            Streams::PerCell {
                seed, noise_salt, ..
            } => stream_rng(seed, &[noise_salt, device as u64, cell as u64]),
        }
    }
}

/// One valid cell of a grid: its settings, as data.
#[derive(Debug, Clone, Copy)]
struct Cell {
    id: CellId,
    workload: Workload,
    source: SourceSpec,
    streams: Streams,
    sequencer: Option<SequencerConfig>,
}

/// A sweep grid: the valid cells in report order, plus the candidate
/// cells config validation rejected. Build one with [`scenario_grid`],
/// [`dyn_scenario_grid`], [`seq_scenario_grid`] or
/// [`arch_scenario_grid`] and sweep it with [`run`].
#[derive(Debug, Clone)]
pub struct Grid {
    cells: Vec<Cell>,
    skipped: Vec<(CellId, String)>,
}

/// The counter widths the paper sweeps (Table 1).
const COUNTER_BITS: [u32; 4] = [4, 5, 6, 7];

/// The paper-spec static plan at a counter width and filter setting.
fn static_config(counter_bits: u32, deglitch: bool) -> BistConfig {
    BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(counter_bits)
        .deglitch(deglitch)
        .build()
        .expect("paper operating points are valid")
}

/// The static grid over a batch's devices: every counter width ×
/// deglitch × noise point, all at ramp slope error `slope_error`. The
/// cells share each device and draw their own acquisition noise.
pub fn scenario_grid(batch: &Batch, slope_error: f64) -> Grid {
    let mut cells = Vec::new();
    for counter_bits in COUNTER_BITS {
        for deglitch in [false, true] {
            let config = static_config(counter_bits, deglitch);
            for noise in NoisePoint::ALL {
                cells.push(Cell {
                    id: CellId::Static {
                        arch: batch.architecture(),
                        counter_bits,
                        sigma_milli_lsb: None,
                        deglitch,
                        noise,
                    },
                    workload: Workload::static_ramp(config)
                        .with_noise(noise.config())
                        .with_slope_error(slope_error),
                    source: batch.source(),
                    streams: Streams::Shared { seed: batch.seed },
                    sequencer: None,
                });
            }
        }
    }
    Grid {
        cells,
        skipped: Vec::new(),
    }
}

/// Samples per coherent record in the dynamic cells.
const DYN_RECORD_LEN: usize = 4096;

/// A dynamic cell's id, workload and flash source, or the validation
/// error of its plan. Every resolution keeps the 0.1 V/LSB convention,
/// and the sine is driven at exactly full scale: the default
/// overdrive's clipping distortion (~−37 dBc, resolution-independent)
/// would bury the 8-bit quantisation floor and reject even ideal
/// devices.
fn dyn_cell(
    resolution_bits: u32,
    sigma_milli_lsb: u32,
    cycles: u32,
    streams: Streams,
    sequencer: Option<SequencerConfig>,
) -> Result<Cell, (CellId, String)> {
    let id = CellId::Dynamic {
        resolution_bits,
        sigma_milli_lsb,
        cycles,
    };
    let resolution = Resolution::new(resolution_bits).expect("sweep resolutions are valid");
    let high = Volts(0.1 * resolution.code_count() as f64);
    let flash = FlashConfig::new(resolution, Volts(0.0), high)
        .with_width_sigma_lsb(sigma_milli_lsb as f64 / 1000.0);
    let config = DynamicConfig::new(resolution, DYN_RECORD_LEN, cycles)
        .map_err(|e| (id, e.to_string()))?
        .with_overdrive(0.0);
    Ok(Cell {
        id,
        workload: Workload::dynamic_sine(config)
            .with_noise(NoiseConfig::noiseless().with_input_noise(0.002)),
        source: flash.into(),
        streams,
        sequencer,
    })
}

/// The dynamic grid: flash devices × resolution (6/8 bit) × mismatch σ
/// (0 / 0.16 / 0.21 LSB) × coherent bin (1021/997 cycles, both odd and
/// coprime with the record length). Every cell draws its own devices.
pub fn dyn_scenario_grid(seed: u64) -> Grid {
    let streams = Streams::PerCell {
        seed,
        device_salt: 0xdd1f_f000,
        noise_salt: 0xdd1f_f001,
    };
    let mut cells = Vec::new();
    for bits in [6, 8] {
        for sigma_milli in [0, 160, 210] {
            for cycles in [1021, 997] {
                cells.push(
                    dyn_cell(bits, sigma_milli, cycles, streams, None)
                        .expect("sweep bins are valid"),
                );
            }
        }
    }
    Grid {
        cells,
        skipped: Vec::new(),
    }
}

/// The sequenced grid under `policy`: static iid-width cells (counter
/// width 4/7 × mismatch σ 0.05/0.21 LSB, plus one deglitched
/// transition-noise cell exercising the filters and the quiet dwell of
/// the completion-accept rule) and dynamic flash cells (resolution 6/8
/// × mismatch σ at the 1021-cycle bin, plus the Nyquist-folding
/// 1024-cycle candidates — of which the 8-bit one is rejected by the
/// fixed-point register audit and recorded as skipped).
pub fn seq_scenario_grid(seed: u64, policy: &SequencerConfig) -> Grid {
    let streams = Streams::PerCell {
        seed,
        device_salt: 0x5e9_f000,
        noise_salt: 0x5e9_f001,
    };
    let iid_cell = |counter_bits, sigma_milli: u32, deglitch, noise: NoisePoint| Cell {
        id: CellId::Static {
            arch: Architecture::IidWidths,
            counter_bits,
            sigma_milli_lsb: Some(sigma_milli),
            deglitch,
            noise,
        },
        workload: Workload::static_ramp(static_config(counter_bits, deglitch))
            .with_noise(noise.config()),
        source: IidWidthSource::new(
            Resolution::SIX_BIT,
            WidthDistribution::new(1.0, sigma_milli as f64 / 1000.0),
        )
        .into(),
        streams,
        sequencer: Some(*policy),
    };
    let mut cells = Vec::new();
    for counter_bits in [4, 7] {
        for sigma_milli in [50, 210] {
            cells.push(iid_cell(
                counter_bits,
                sigma_milli,
                false,
                NoisePoint::Noiseless,
            ));
        }
    }
    cells.push(iid_cell(5, 210, true, NoisePoint::Transition));
    let mut skipped = Vec::new();
    for bits in [6, 8] {
        let candidates = [(0, 1021), (160, 1021), (210, 1021), (160, 1024)];
        for (sigma_milli, cycles) in candidates {
            match dyn_cell(bits, sigma_milli, cycles, streams, Some(*policy)) {
                Ok(cell) => cells.push(cell),
                Err(skip) => skipped.push(skip),
            }
        }
    }
    Grid { cells, skipped }
}

/// The per-architecture grid under `policy`: every zoo paper preset
/// (flash, iid-width, SAR, pipeline) × counter width 4/6, all
/// noiseless static-ramp cells drawing their own devices. Backends
/// must latch identically for every architecture — the paper's
/// architecture-agnostic claim, checked at the gate level.
pub fn arch_scenario_grid(seed: u64, policy: &SequencerConfig) -> Grid {
    // Salts disjoint from the sequenced grid's, so the two sweeps draw
    // independent silicon even at the same seed.
    let streams = Streams::PerCell {
        seed,
        device_salt: 0x5e9_f002,
        noise_salt: 0x5e9_f003,
    };
    let mut cells = Vec::new();
    for counter_bits in [4, 6] {
        for source in [
            SourceSpec::paper_flash(),
            SourceSpec::paper_iid(),
            SourceSpec::paper_sar(),
            SourceSpec::paper_pipeline(),
        ] {
            cells.push(Cell {
                id: CellId::Arch {
                    arch: source.architecture(),
                    counter_bits,
                },
                workload: Workload::static_ramp(static_config(counter_bits, false)),
                source,
                streams,
                sequencer: Some(*policy),
            });
        }
    }
    Grid {
        cells,
        skipped: Vec::new(),
    }
}

/// A cell's screeners: both backends on the cell's workload and
/// sequencer, plus the unsequenced behavioural ground truth when the
/// cell is sequenced. Per-cell screeners keep the RTL backend's cached
/// tops and the scratch buffers resetting in place across the
/// device-outer sweep order instead of rebuilding on every config
/// change.
struct Runner {
    behavioral: Screener,
    rtl: Screener<RtlBackend>,
    full: Option<Screener>,
}

impl Runner {
    fn new(cell: &Cell) -> Self {
        let screener = || match cell.sequencer {
            Some(policy) => Screener::new(cell.workload).sequencer(policy),
            None => Screener::new(cell.workload),
        };
        Runner {
            behavioral: screener(),
            rtl: screener().backend(RtlBackend::new()),
            full: cell.sequencer.map(|_| Screener::new(cell.workload)),
        }
    }
}

/// Whether two dynamic verdicts agree on everything the silicon
/// latches: the per-limit decisions, the sample count and the
/// completeness expectation.
fn dyn_decisions_agree(a: &DynamicVerdict, b: &DynamicVerdict) -> bool {
    a.checks == b.checks && a.samples == b.samples && a.expected_samples == b.expected_samples
}

/// The one agreement rule: identical latch (decision, device decision,
/// samples) and identical verdict — bit-exact for static, decision-exact
/// for dynamic unless the record stopped early.
fn backends_agree(b: &ScreenVerdict, r: &ScreenVerdict) -> bool {
    let latch = |v: &ScreenVerdict| (v.decision(), v.accepted(), v.samples());
    latch(b) == latch(r)
        && match (b, r) {
            (ScreenVerdict::Static(b), ScreenVerdict::Static(r)) => b.verdict == r.verdict,
            (ScreenVerdict::Dynamic(b), ScreenVerdict::Dynamic(r)) => {
                b.stopped_early() || dyn_decisions_agree(&b.verdict, &r.verdict)
            }
            _ => false,
        }
}

/// Sweeps devices `from..to` over every cell of `grid` — the unit of
/// work behind [`run`]'s fan-out. Per device × cell, both backends (and
/// the ground truth of a sequenced cell) consume bit-identical code
/// streams, so any disagreement is a genuine datapath divergence, not
/// sampling noise.
fn run_range(grid: &Grid, from: usize, to: usize) -> DifferentialResult {
    let mut runners: Vec<Runner> = grid.cells.iter().map(Runner::new).collect();
    let mut result = DifferentialResult {
        per_cell: grid.cells.iter().map(|c| Tally::new(c.id)).collect(),
        skipped_cells: grid.skipped.clone(),
        ..DifferentialResult::default()
    };
    for i in from..to {
        result.devices += 1;
        // Shared-stream cells all come from one batch: draw its device once.
        let mut shared: Option<TransferFunction> = None;
        for (c, (cell, runner)) in grid.cells.iter().zip(&mut runners).enumerate() {
            let draw = || cell.source.sample_transfer(&mut cell.streams.device(i, c));
            let own;
            let adc = match cell.streams {
                Streams::Shared { .. } => &*shared.get_or_insert_with(draw),
                Streams::PerCell { .. } => {
                    own = draw();
                    &own
                }
            };
            let behavioral = runner
                .behavioral
                .screen_one(adc, &mut cell.streams.noise(i, c));
            let rtl = runner.rtl.screen_one(adc, &mut cell.streams.noise(i, c));
            let truth = match &mut runner.full {
                Some(full) => full.screen_one(adc, &mut cell.streams.noise(i, c)),
                None => behavioral,
            };
            let agree = backends_agree(&behavioral, &rtl);
            if !agree {
                result.divergences.push(Divergence {
                    device: i,
                    cell: cell.id,
                    behavioral,
                    rtl,
                });
            }
            result.per_cell[c].record(agree, &behavioral, &truth);
        }
    }
    result
}

/// Sweeps `devices` devices over every cell of `grid`, fanned out
/// across `workers` threads (0 = available parallelism). Deterministic
/// in the worker count: devices and RNG streams derive from the seed,
/// the device index and the cell alone.
pub fn run(grid: &Grid, devices: usize, workers: usize) -> DifferentialResult {
    let partials = partitioned(devices, workers, |from, to| run_range(grid, from, to));
    let mut total = DifferentialResult::default();
    for p in &partials {
        total.merge(p);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 1997;
    const DEVICES: usize = 8;

    /// The four grids at the golden-pin operating point, static at both
    /// ramps.
    fn grids() -> [(&'static str, Grid); 5] {
        let batch = Batch::paper_simulation(SEED, DEVICES);
        let policy = SequencerConfig::default();
        [
            ("static nominal", scenario_grid(&batch, 0.0)),
            ("static skewed", scenario_grid(&batch, -0.022)),
            ("dynamic", dyn_scenario_grid(SEED)),
            ("sequenced", seq_scenario_grid(SEED, &policy)),
            ("arch", arch_scenario_grid(SEED, &policy)),
        ]
    }

    /// Per-cell tallies of the parent implementation's four runners
    /// (seed 1997, 8 devices, default sequencer policy), in grid order.
    /// Unsequenced rows: `[comparisons, agreements, full_accepted]`.
    /// Sequenced rows add `[early_stops, early_accepts, early_rejects,
    /// seq_samples_early, drift_i, drift_ii, full_samples, seq_samples,
    /// full_samples_accepted, seq_samples_accepted]`.
    #[rustfmt::skip]
    const GOLDEN: [&[(&str, &[u64])]; 5] = [
        &[
            ("static/4-bit/raw/noiseless", &[8, 8, 5]),
            ("static/4-bit/raw/transition", &[8, 8, 1]),
            ("static/4-bit/raw/mixed", &[8, 8, 0]),
            ("static/4-bit/deglitch/noiseless", &[8, 8, 5]),
            ("static/4-bit/deglitch/transition", &[8, 8, 3]),
            ("static/4-bit/deglitch/mixed", &[8, 8, 4]),
            ("static/5-bit/raw/noiseless", &[8, 8, 5]),
            ("static/5-bit/raw/transition", &[8, 8, 0]),
            ("static/5-bit/raw/mixed", &[8, 8, 0]),
            ("static/5-bit/deglitch/noiseless", &[8, 8, 5]),
            ("static/5-bit/deglitch/transition", &[8, 8, 3]),
            ("static/5-bit/deglitch/mixed", &[8, 8, 3]),
            ("static/6-bit/raw/noiseless", &[8, 8, 3]),
            ("static/6-bit/raw/transition", &[8, 8, 0]),
            ("static/6-bit/raw/mixed", &[8, 8, 0]),
            ("static/6-bit/deglitch/noiseless", &[8, 8, 3]),
            ("static/6-bit/deglitch/transition", &[8, 8, 0]),
            ("static/6-bit/deglitch/mixed", &[8, 8, 0]),
            ("static/7-bit/raw/noiseless", &[8, 8, 2]),
            ("static/7-bit/raw/transition", &[8, 8, 0]),
            ("static/7-bit/raw/mixed", &[8, 8, 0]),
            ("static/7-bit/deglitch/noiseless", &[8, 8, 2]),
            ("static/7-bit/deglitch/transition", &[8, 8, 0]),
            ("static/7-bit/deglitch/mixed", &[8, 8, 0]),
        ],
        &[
            ("static/4-bit/raw/noiseless", &[8, 8, 2]),
            ("static/4-bit/raw/transition", &[8, 8, 0]),
            ("static/4-bit/raw/mixed", &[8, 8, 0]),
            ("static/4-bit/deglitch/noiseless", &[8, 8, 2]),
            ("static/4-bit/deglitch/transition", &[8, 8, 2]),
            ("static/4-bit/deglitch/mixed", &[8, 8, 0]),
            ("static/5-bit/raw/noiseless", &[8, 8, 2]),
            ("static/5-bit/raw/transition", &[8, 8, 0]),
            ("static/5-bit/raw/mixed", &[8, 8, 0]),
            ("static/5-bit/deglitch/noiseless", &[8, 8, 2]),
            ("static/5-bit/deglitch/transition", &[8, 8, 3]),
            ("static/5-bit/deglitch/mixed", &[8, 8, 2]),
            ("static/6-bit/raw/noiseless", &[8, 8, 3]),
            ("static/6-bit/raw/transition", &[8, 8, 0]),
            ("static/6-bit/raw/mixed", &[8, 8, 0]),
            ("static/6-bit/deglitch/noiseless", &[8, 8, 3]),
            ("static/6-bit/deglitch/transition", &[8, 8, 0]),
            ("static/6-bit/deglitch/mixed", &[8, 8, 0]),
            ("static/7-bit/raw/noiseless", &[8, 8, 3]),
            ("static/7-bit/raw/transition", &[8, 8, 0]),
            ("static/7-bit/raw/mixed", &[8, 8, 0]),
            ("static/7-bit/deglitch/noiseless", &[8, 8, 3]),
            ("static/7-bit/deglitch/transition", &[8, 8, 0]),
            ("static/7-bit/deglitch/mixed", &[8, 8, 0]),
        ],
        &[
            ("dynamic/6-bit/σ0.000/1021c", &[8, 8, 8]),
            ("dynamic/6-bit/σ0.000/997c", &[8, 8, 8]),
            ("dynamic/6-bit/σ0.160/1021c", &[8, 8, 8]),
            ("dynamic/6-bit/σ0.160/997c", &[8, 8, 8]),
            ("dynamic/6-bit/σ0.210/1021c", &[8, 8, 8]),
            ("dynamic/6-bit/σ0.210/997c", &[8, 8, 7]),
            ("dynamic/8-bit/σ0.000/1021c", &[8, 8, 8]),
            ("dynamic/8-bit/σ0.000/997c", &[8, 8, 8]),
            ("dynamic/8-bit/σ0.160/1021c", &[8, 8, 6]),
            ("dynamic/8-bit/σ0.160/997c", &[8, 8, 5]),
            ("dynamic/8-bit/σ0.210/1021c", &[8, 8, 4]),
            ("dynamic/8-bit/σ0.210/997c", &[8, 8, 6]),
        ],
        &[
            ("static/4-bit/σ0.050/raw/noiseless", &[8, 8, 8, 8, 8, 0, 3088, 0, 0, 6704, 3088, 6704, 3088]),
            ("static/4-bit/σ0.210/raw/noiseless", &[8, 8, 1, 8, 1, 7, 4112, 0, 0, 6704, 4112, 838, 834]),
            ("static/7-bit/σ0.050/raw/noiseless", &[8, 8, 8, 8, 8, 0, 11600, 0, 0, 52104, 11600, 52104, 11600]),
            ("static/7-bit/σ0.210/raw/noiseless", &[8, 8, 2, 8, 2, 6, 21008, 0, 0, 52104, 21008, 13026, 11588]),
            ("static/5-bit/σ0.210/deglitch/transition", &[8, 8, 2, 8, 2, 6, 5904, 0, 0, 13192, 5904, 3298, 3076]),
            ("dynamic/6-bit/σ0.000/1021c", &[8, 8, 8, 8, 8, 0, 2048, 0, 0, 32768, 2048, 32768, 2048]),
            ("dynamic/6-bit/σ0.160/1021c", &[8, 8, 8, 8, 8, 0, 3008, 0, 0, 32768, 3008, 32768, 3008]),
            ("dynamic/6-bit/σ0.210/1021c", &[8, 8, 8, 8, 8, 0, 5440, 0, 0, 32768, 5440, 32768, 5440]),
            ("dynamic/6-bit/σ0.160/1024c", &[8, 8, 8, 8, 8, 0, 2048, 0, 0, 32768, 2048, 32768, 2048]),
            ("dynamic/8-bit/σ0.000/1021c", &[8, 8, 8, 8, 8, 0, 6656, 0, 0, 32768, 6656, 32768, 6656]),
            ("dynamic/8-bit/σ0.160/1021c", &[8, 8, 5, 5, 5, 0, 10624, 0, 0, 32768, 22912, 20480, 10624]),
            ("dynamic/8-bit/σ0.210/1021c", &[8, 8, 3, 6, 2, 4, 10688, 0, 0, 32768, 18880, 12288, 10496]),
        ],
        &[
            ("arch/flash/4-bit", &[8, 8, 1, 8, 1, 7, 3152, 0, 0, 6704, 3152, 838, 834]),
            ("arch/iid/4-bit", &[8, 8, 3, 8, 3, 5, 4304, 0, 0, 6704, 4304, 2514, 2438]),
            ("arch/sar/4-bit", &[8, 8, 7, 8, 7, 1, 6224, 0, 0, 6704, 6224, 5866, 5838]),
            ("arch/pipeline/4-bit", &[8, 8, 6, 8, 6, 2, 5072, 0, 0, 6704, 5072, 5028, 4556]),
            ("arch/flash/6-bit", &[8, 8, 3, 8, 3, 5, 14736, 0, 0, 26160, 14736, 9810, 8646]),
            ("arch/iid/6-bit", &[8, 8, 5, 8, 5, 3, 19152, 0, 0, 26160, 19152, 16350, 14346]),
            ("arch/sar/6-bit", &[8, 8, 6, 8, 7, 1, 18384, 0, 1, 26160, 18384, 19620, 17356]),
            ("arch/pipeline/6-bit", &[8, 8, 2, 8, 4, 4, 8080, 0, 2, 26160, 8080, 6540, 5252]),
        ],
    ];

    #[test]
    fn grids_reproduce_the_golden_tallies() {
        for ((name, grid), golden) in grids().iter().zip(GOLDEN) {
            let result = run(grid, DEVICES, 0);
            assert_eq!(result.devices, DEVICES as u64, "{name}");
            assert!(result.is_clean(), "{name}: {result}");
            let labels: Vec<String> = result.per_cell.iter().map(|t| t.cell.to_string()).collect();
            let expected: Vec<&str> = golden.iter().map(|(label, _)| *label).collect();
            assert_eq!(labels, expected, "{name}: grid order");
            for (t, (label, row)) in result.per_cell.iter().zip(golden) {
                let got = [
                    t.comparisons,
                    t.agreements,
                    t.full_accepted,
                    t.early_stops,
                    t.early_accepts,
                    t.early_rejects,
                    t.seq_samples_early,
                    t.drift_i,
                    t.drift_ii,
                    t.full_samples,
                    t.seq_samples,
                    t.full_samples_accepted,
                    t.seq_samples_accepted,
                ];
                assert_eq!(&got[..row.len()], *row, "{name}: {label}");
                if row.len() == 3 {
                    // Unsequenced: the cell is its own ground truth.
                    assert_eq!(got[3..9], [0; 6], "{name}: {label}");
                    assert_eq!(t.full_samples, t.seq_samples, "{name}: {label}");
                }
            }
        }
    }

    #[test]
    fn independent_of_worker_count() {
        for (name, grid) in grids() {
            assert_eq!(run(&grid, 5, 1), run(&grid, 5, 4), "{name}");
        }
    }

    #[test]
    fn merge_accumulates_cellwise() {
        for (name, grid) in grids() {
            let whole = run_range(&grid, 0, 4);
            let mut parts = run_range(&grid, 0, 1);
            parts.merge(&run_range(&grid, 1, 4));
            assert_eq!(whole, parts, "{name}");
        }
    }

    #[test]
    fn display_summarises() {
        for (name, grid) in grids() {
            let r = run(&grid, 2, 1);
            let s = r.to_string();
            assert!(s.contains("2 devices"), "{name}: {s}");
            assert!(s.contains("latches agree"), "{name}: {s}");
        }
    }

    #[test]
    fn only_the_8_bit_nyquist_candidate_is_skipped() {
        let skipped: Vec<Vec<(CellId, String)>> =
            grids().iter().map(|(_, g)| g.skipped.clone()).collect();
        for (i, s) in skipped.iter().enumerate() {
            assert_eq!(s.is_empty(), i != 3, "{s:?}");
        }
        let (id, reason) = &skipped[3][0];
        assert_eq!(skipped[3].len(), 1);
        assert_eq!(
            *id,
            CellId::Dynamic {
                resolution_bits: 8,
                sigma_milli_lsb: 160,
                cycles: 1024
            }
        );
        assert!(reason.contains("unrealisable"), "{reason}");
    }

    #[test]
    fn sequenced_cells_save_samples() {
        let policy = SequencerConfig::default();
        let result = run(&seq_scenario_grid(31, &policy), 6, 0);
        assert!(result.is_clean(), "{result}");
        assert!(result.early_stop_rate() > 0.3, "{result}");
        assert!(result.reduction_overall() > 1.2, "{result}");
    }

    #[test]
    fn min_samples_never_violated() {
        let policy = SequencerConfig {
            min_samples: 300,
            check_interval: 50,
            ..Default::default()
        };
        let result = run(&seq_scenario_grid(59, &policy), 4, 0);
        assert!(result.is_clean());
        // Per-decision at_sample checks live in
        // crates/core/tests/sequencer_equivalence.rs; here: no cell's
        // early stops averaged fewer samples than the floor.
        for t in &result.per_cell {
            assert!(t.seq_samples_early >= t.early_stops * 300, "{}", t.cell);
        }
    }

    #[test]
    fn early_split_fields_account_for_every_early_stop() {
        let policy = SequencerConfig::default();
        for grid in [
            seq_scenario_grid(43, &policy),
            arch_scenario_grid(43, &policy),
        ] {
            for t in &run(&grid, 4, 0).per_cell {
                assert_eq!(
                    t.early_accepts + t.early_rejects,
                    t.early_stops,
                    "{}",
                    t.cell
                );
                if t.early_stops == 0 {
                    assert_eq!(t.seq_samples_early, 0);
                } else {
                    assert!(t.seq_samples_early >= t.early_stops * policy.min_samples);
                    assert!(t.seq_samples_early <= t.seq_samples);
                }
            }
        }
    }

    #[test]
    fn sar_and_pipeline_batches_are_bit_exact_through_rtl() {
        for source in [SourceSpec::paper_sar(), SourceSpec::paper_pipeline()] {
            let batch = Batch::of(source).seed(53).size(3);
            let result = run(&scenario_grid(&batch, 0.0), batch.size, 0);
            assert_eq!(result.comparisons(), 3 * 24, "{source}");
            assert!(result.is_clean(), "{source}: {result}");
            assert!(result
                .per_cell
                .iter()
                .all(|t| t.cell.architecture() == source.architecture()));
        }
    }

    #[test]
    fn arch_grid_covers_every_architecture() {
        let cells = arch_scenario_grid(31, &SequencerConfig::default()).cells;
        assert_eq!(cells.len(), Architecture::COUNT * 2);
        for arch in Architecture::ALL {
            assert!(
                cells.iter().any(|c| c.id.architecture() == arch),
                "{arch} missing from the grid"
            );
        }
    }

    #[test]
    fn per_cell_streams_draw_independent_devices() {
        use rand::RngCore;
        // Every per-cell-stream cell has its own seeded device stream, so
        // two cells at the same device index see different silicon.
        let cells = dyn_scenario_grid(7).cells;
        let [a, b] = [0, 1].map(|c| cells[c].streams.device(3, c).next_u64());
        assert_ne!(a, b);
    }

    #[test]
    fn seed_priors_accumulates_by_architecture() {
        let policy = SequencerConfig::default();
        let result = run(&arch_scenario_grid(47, &policy), 5, 0);
        let mut bank = PriorsBank::new(policy);
        result.seed_priors(&mut bank);
        assert_eq!(bank.runs(), result.comparisons());
        for arch in Architecture::ALL {
            let expected: u64 = result
                .per_cell
                .iter()
                .filter(|t| t.cell.architecture() == arch)
                .map(|t| t.comparisons)
                .sum();
            assert_eq!(bank.tally(arch).runs, expected, "{arch}");
            // Whatever the bank derives must be a valid policy.
            bank.policy_for(arch)
                .validate()
                .expect("derived policy validates");
        }
    }
}
