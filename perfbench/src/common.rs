//! Shared pieces of the workloads: the paper operating points, seeded
//! device selection, order statistics, quality tallies, the report
//! checksum and the host fingerprint.

use std::time::Duration;

use bist_adc::spec::LinearitySpec;
use bist_adc::types::Resolution;
use bist_core::config::BistConfig;
use bist_core::screener::ScreenVerdict;
use bist_core::source::{splitmix_finalize, Architecture, Zoo};
use bist_dsp::stats::percentile;

/// How many times each workload repeats its set-up; `setup_s` is the
/// median of these repetitions.
pub const SETUP_REPS: usize = 3;

/// The static plan at the paper's operating point: 6 bits, ±0.5 LSB
/// DNL (`paper_stringent`), 5-bit transition counter.
pub fn paper_config() -> BistConfig {
    BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(5)
        .build()
        .expect("paper operating point is valid")
}

/// A seeded 64-bit mix of `seed` and a coordinate tuple — the noise
/// seeds the benchmark hands the service, and its sample picks.
pub fn mix(seed: u64, coords: &[u64]) -> u64 {
    coords.iter().fold(splitmix_finalize(seed), |z, &c| {
        splitmix_finalize(z ^ c.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    })
}

/// Deals zoo indices in order with a fixed architecture census: every
/// [`Dealer::take`] returns the next `per_arch` devices of each
/// architecture the zoo deals, so the seed decides *which* devices,
/// never how many of each kind, and work does not swing with the census.
#[derive(Debug)]
pub struct Dealer<'z> {
    zoo: &'z Zoo,
    dealt: [bool; Architecture::COUNT],
    next: usize,
}

impl<'z> Dealer<'z> {
    pub fn new(zoo: &'z Zoo, start: usize) -> Self {
        let mut dealt = [false; Architecture::COUNT];
        for source in zoo.sources() {
            dealt[bist_core::DeviceSource::architecture(source).index()] = true;
        }
        Dealer {
            zoo,
            dealt,
            next: start,
        }
    }

    /// Architectures the zoo deals.
    pub fn kinds(&self) -> usize {
        self.dealt.iter().filter(|&&d| d).count()
    }

    /// Appends the next `per_arch` indices of each architecture to
    /// `out`, in zoo order.
    pub fn take(&mut self, per_arch: usize, out: &mut Vec<usize>) {
        let mut quota = self.dealt.map(|d| if d { per_arch } else { 0 });
        let mut left = per_arch * self.kinds();
        while left > 0 {
            let slot = &mut quota[self.zoo.architecture_of(self.next).index()];
            if *slot > 0 {
                *slot -= 1;
                left -= 1;
                out.push(self.next);
            }
            self.next += 1;
        }
    }
}

/// Zoo indices from `start` on with exactly `per_arch` devices of each
/// architecture the zoo deals (one [`Dealer::take`]).
pub fn balanced_indices(zoo: &Zoo, start: usize, per_arch: usize) -> Vec<usize> {
    let mut picked = Vec::new();
    Dealer::new(zoo, start).take(per_arch, &mut picked);
    picked
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated as
/// the workspace's `percentile`; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        percentile(values, q.clamp(0.0, 1.0) * 100.0)
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `k` events out of `n` trials.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub k: u64,
    pub n: u64,
}

impl Tally {
    /// Counts one trial, an event when `event`.
    pub fn add(&mut self, event: bool) {
        self.n += 1;
        self.k += u64::from(event);
    }

    /// The rate as the Jeffreys point estimate `(k + ½) / (n + 1)`:
    /// equal to `k / n` up to a half-count, never 0, and bounded by the
    /// sample size when no event occurred — so a first escape in a
    /// fleet that had none reads as a threefold regression instead of a
    /// division by zero.
    pub fn rate(&self) -> f64 {
        (self.k as f64 + 0.5) / (self.n as f64 + 1.0)
    }
}

impl std::fmt::Display for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.k, self.n)
    }
}

/// Escapes (reference-bad, accepted) and overkills (reference-good,
/// rejected) of a screened fleet.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    pub escapes: Tally,
    pub overkills: Tally,
    pub samples: u64,
    pub devices: u64,
}

impl Quality {
    /// Scores one device's verdict against its reference decision.
    pub fn add(&mut self, reference_good: bool, verdict: &ScreenVerdict) {
        let accepted = verdict.accepted();
        if reference_good {
            self.overkills.add(!accepted);
        } else {
            self.escapes.add(accepted);
        }
        self.samples += verdict.samples();
        self.devices += 1;
    }

    /// Mean samples consumed before the verdict latched.
    pub fn samples_per_device(&self) -> f64 {
        self.samples as f64 / self.devices.max(1) as f64
    }
}

/// FNV-1a over `id:verdict;` records — the same order-sensitive report
/// fingerprint shape as the repository's fleet binaries.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn fold(&mut self, id: u64, verdict: &ScreenVerdict) {
        for b in format!("{id}:{verdict:?};").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Bit-for-bit verdict equality (`f64` fields compared by their
/// shortest round-trip rendering, so a NaN equals itself).
pub fn same_verdict(a: &ScreenVerdict, b: &ScreenVerdict) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The host a result was measured on, as a flat JSON object.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "{{\"nproc\": {nproc}, \"avx2\": {avx2}, \"fma\": {fma}, \"cpu\": {}, \
         \"rustc\": {}, \"profile\": {}}}",
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
    )
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jeffreys_rate_is_never_zero() {
        let mut t = Tally::default();
        for _ in 0..99 {
            t.add(false);
        }
        assert!((t.rate() - 0.005).abs() < 1e-12);
        t.add(true);
        assert!(t.rate() > 2.9 * 0.005);
    }

    #[test]
    fn balanced_indices_fill_every_quota() {
        let zoo = Zoo::paper().with_seed(7);
        let picked = balanced_indices(&zoo, 0, 5);
        assert_eq!(picked.len(), 20);
        let mut census = [0; Architecture::COUNT];
        for &i in &picked {
            census[zoo.architecture_of(i).index()] += 1;
        }
        assert_eq!(census, [5; Architecture::COUNT]);
    }

    #[test]
    fn dealer_slices_continue_where_the_last_stopped() {
        let zoo = Zoo::paper().with_seed(7);
        let mut dealer = Dealer::new(&zoo, 0);
        assert_eq!(dealer.kinds(), Architecture::COUNT);
        let (mut first, mut second) = (Vec::new(), Vec::new());
        dealer.take(3, &mut first);
        dealer.take(3, &mut second);
        assert_eq!(first, balanced_indices(&zoo, 0, 3));
        assert!(first.last() < second.first());
        let mut census = [0; Architecture::COUNT];
        for &i in &second {
            census[zoo.architecture_of(i).index()] += 1;
        }
        assert_eq!(census, [3; Architecture::COUNT]);
    }
}
