//! The service workloads: a one-worker `bist-serve` service driven over
//! localhost TCP by one client with two connections — a closed-loop
//! **tester** (one submission in flight) and a closed-loop **bulk**
//! uploader (a fixed window in flight). Devices are a fixed set drawn
//! from a zoo at set-up and resubmitted with fresh noise seeds.
//! `serve_tcp` runs the static full sweep over the paper zoo;
//! `serve_tcp_dynamic` runs the coherent-sine record under the default
//! sequencer over paper flash devices.
//!
//! The client sets no socket options: whatever the service's framing
//! and flushing cost a round trip shows up in the figures.

use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use bist_adc::spec::LinearitySpec;
use bist_adc::transfer::TransferFunction;
use bist_core::screener::{ScreenVerdict, Screener};
use bist_core::sequencer::SequencerConfig;
use bist_serve::protocol::{self, AckStatus, ClientFrame, ServerFrame};
use bist_serve::{submission_rng, JobKind, ServiceConfig, ServiceHandle, Submission};

use crate::common::{balanced_indices, median, mix, ms, same_verdict, Fnv, Quality};
use crate::inproc::Inproc;
use crate::trace::Spans;
use crate::Outcome;

/// What the service screens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// `Zoo::paper()` through the static ramp, full sweep (no
    /// sequencer); the reference is the exact transfer function.
    StaticSweep,
    /// Paper flash devices through the coherent-sine record under the
    /// default sequencer; the reference is the unsequenced verdict on
    /// the same device and noise stream.
    SequencedSine,
}

impl Job {
    /// The in-process workload with the same zoo and screening workload.
    fn twin(self) -> Inproc {
        match self {
            Job::StaticSweep => Inproc::ZooStatic,
            Job::SequencedSine => Inproc::FlashDynamic,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Job::StaticSweep => "serve_tcp",
            Job::SequencedSine => "serve_tcp_dynamic",
        }
    }

    fn kind(self) -> JobKind {
        match self {
            Job::StaticSweep => JobKind::Static,
            Job::SequencedSine => JobKind::Dynamic,
        }
    }

    fn sequencer(self) -> Option<SequencerConfig> {
        match self {
            Job::StaticSweep => None,
            Job::SequencedSine => Some(SequencerConfig::default()),
        }
    }

    /// A one-worker screener doing what the service does.
    fn screener(self) -> Screener {
        let screener = Screener::new(self.twin().workload()).workers(1);
        match self.sequencer() {
            Some(policy) => screener.sequencer(policy),
            None => screener,
        }
    }

    /// Reference decisions (good / bad) for `subs` screened on `devices`.
    fn reference(self, devices: &[TransferFunction], subs: &[&Sent]) -> Vec<bool> {
        match self {
            Job::StaticSweep => {
                let spec = LinearitySpec::paper_stringent();
                let good: Vec<bool> = devices.iter().map(|tf| spec.classify(tf).good).collect();
                subs.iter().map(|s| good[s.slot]).collect()
            }
            Job::SequencedSine => {
                let mut good = vec![false; subs.len()];
                let reports = Screener::new(self.twin().workload()).workers(1).run(
                    subs.iter()
                        .map(|s| (&devices[s.slot], submission_rng(s.seed))),
                );
                for r in reports {
                    good[r.device] = r.verdict.accepted();
                }
                good
            }
        }
    }
}

/// Sizes of one serve session.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub job: Job,
    /// Devices drawn per architecture at set-up (a fixed census).
    pub set_per_arch: usize,
    /// The zoo seed the device set is drawn from; `None` draws it from
    /// the run's seed.
    pub set_seed: Option<u64>,
    /// Bulk submissions the quality metrics and the checksum cover,
    /// from the first on (at most all of them).
    pub quality: usize,
    /// Bulk submissions kept in flight — below the service's default
    /// submit capacity (1024), so no `Busy` is expected.
    pub window: usize,
    /// Warm-up submissions on the bulk connection.
    pub warm_bulk: u64,
    /// Warm-up round trips on the tester connection.
    pub warm_tester: u64,
    /// Bulk submissions per second on the reference host (2 shared
    /// Xeon cores): `--seconds` sets the bulk's fixed submission count
    /// through it (never fewer than one pass over the set).
    pub nominal_rate: f64,
}

/// The zoo seed of `serve_tcp`'s device set. A SAR device takes most of
/// a millisecond to draw, so a set large enough for the escape and
/// overkill rates to repeat across run seeds would make set-up many
/// seconds of generation. The set is therefore small and the same for
/// every run seed; the run seed picks the noise streams and the tester's
/// devices, and the quality metrics cover every bulk submission.
const STATIC_SET_SEED: u64 = 2026;

/// The `serve_tcp` workload.
pub const STATIC_TCP: Params = Params {
    job: Job::StaticSweep,
    set_per_arch: 512,
    set_seed: Some(STATIC_SET_SEED),
    quality: usize::MAX,
    window: 256,
    warm_bulk: 4096,
    warm_tester: 8,
    nominal_rate: 5800.0,
};

/// The `serve_tcp_dynamic` workload. The window keeps a round of
/// sequenced sine screening well inside one Ack → Verdict stall, as
/// the static sweep's window does.
pub const DYNAMIC_TCP: Params = Params {
    job: Job::SequencedSine,
    set_per_arch: 16 * 1024,
    set_seed: None,
    quality: 16 * 1024,
    window: 128,
    warm_bulk: 1024,
    warm_tester: 4,
    nominal_rate: 2900.0,
};

/// The short session the traced run uses for the TCP-layer figures.
pub const PROBE: Params = Params {
    job: Job::StaticSweep,
    set_per_arch: 256,
    set_seed: None,
    quality: 1024,
    window: 256,
    warm_bulk: 256,
    warm_tester: 2,
    nominal_rate: 5800.0,
};

const TESTER: u64 = 0x7e57;
const BULK: u64 = 0xb01c;
const WARM: u64 = 0x3a53;

/// One client connection speaking the service protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    frame: Vec<u8>,
    buf: Vec<u8>,
    frames_in: u64,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            frame: Vec::new(),
            buf: Vec::new(),
            frames_in: 0,
        })
    }

    fn send(&mut self, frame: &ClientFrame) -> io::Result<()> {
        frame.encode(&mut self.frame);
        protocol::write_frame(&mut self.writer, &self.frame)?;
        self.writer.flush()
    }

    fn recv(&mut self) -> io::Result<ServerFrame> {
        let payload = protocol::read_frame(&mut self.reader, &mut self.buf)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "service hung up"))?;
        self.frames_in += 1;
        ServerFrame::decode(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Says `Done` and reads to `Finished`, returning how many verdicts
    /// were still in flight (0 for a closed-loop client).
    fn close(mut self) -> io::Result<u64> {
        self.send(&ClientFrame::Done)?;
        let mut stray = 0;
        loop {
            match self.recv()? {
                ServerFrame::Finished => return Ok(stray),
                ServerFrame::Verdict(_) => stray += 1,
                _ => {}
            }
        }
    }
}

/// One submission and what came back for it.
#[derive(Debug, Clone)]
struct Sent {
    id: u64,
    slot: usize,
    seed: u64,
    sent: Instant,
    ack: Option<(Instant, AckStatus)>,
    verdict: Option<(Instant, ScreenVerdict)>,
}

impl Sent {
    fn new(id: u64, slot: usize, seed: u64) -> Self {
        Sent {
            id,
            slot,
            seed,
            sent: Instant::now(),
            ack: None,
            verdict: None,
        }
    }

    /// Accepted and answered.
    fn ok(&self) -> bool {
        matches!(self.ack, Some((_, AckStatus::Accepted))) && self.verdict.is_some()
    }

    /// No further frame is due: answered, or turned away at the door.
    /// (The verdict may overtake its ack on the wire.)
    fn done(&self) -> bool {
        match self.ack {
            Some((_, AckStatus::Accepted)) => self.verdict.is_some(),
            Some(_) => true,
            None => false,
        }
    }
}

/// The fixed device set and the kind of job it is submitted as.
#[derive(Clone, Copy)]
struct Set<'a> {
    devices: &'a [TransferFunction],
    kind: JobKind,
}

fn submit(conn: &mut Conn, set: Set<'_>, sent: &Sent) -> io::Result<()> {
    let devices = set.devices;
    conn.send(&ClientFrame::Submit(Submission {
        id: sent.id,
        kind: set.kind,
        adc: devices[sent.slot].clone(),
        seed: sent.seed,
    }))
}

/// Reads one server frame and files it against the submission it
/// answers (ids index `sent`); returns that index.
fn receive(conn: &mut Conn, sent: &mut [Sent]) -> io::Result<usize> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    match conn.recv()? {
        ServerFrame::Ack { id, status } => {
            let s = sent
                .get_mut(id as usize)
                .ok_or_else(|| bad("ack for unknown id"))?;
            s.ack = Some((Instant::now(), status));
            Ok(id as usize)
        }
        ServerFrame::Verdict(v) => {
            let s = sent
                .get_mut(v.id as usize)
                .ok_or_else(|| bad("verdict for unknown id"))?;
            if s.verdict.is_some() {
                return Err(bad("second verdict for one id"));
            }
            s.verdict = Some((Instant::now(), v.verdict));
            Ok(v.id as usize)
        }
        _ => Err(bad("unexpected frame")),
    }
}

/// The closed-loop tester: one submission in flight, device and noise
/// seed drawn from `salt`, while `more(k)` holds.
fn tester(
    conn: &mut Conn,
    set: Set<'_>,
    salt: u64,
    more: impl Fn(u64) -> bool,
) -> io::Result<Vec<Sent>> {
    let mut sent = Vec::new();
    while more(sent.len() as u64) {
        let k = sent.len() as u64;
        let slot = (mix(salt, &[TESTER, k]) % set.devices.len() as u64) as usize;
        sent.push(Sent::new(k, slot, mix(salt, &[TESTER, k, 1])));
        submit(conn, set, &sent[k as usize])?;
        while !sent[k as usize].done() {
            receive(conn, &mut sent)?;
        }
    }
    Ok(sent)
}

/// The closed-loop bulk uploader: `window` submissions in flight over
/// the device set in order (submission `k` screens device `k mod n`),
/// `count` submissions in all. Returns the submissions and the instant
/// the last one was sent.
fn bulk(
    conn: &mut Conn,
    set: Set<'_>,
    salt: u64,
    window: usize,
    count: u64,
) -> io::Result<(Vec<Sent>, Instant)> {
    let mut sent: Vec<Sent> = Vec::new();
    let mut last_sent = Instant::now();
    let mut send_next = |conn: &mut Conn, sent: &mut Vec<Sent>| -> io::Result<()> {
        let k = sent.len() as u64;
        let slot = (k % set.devices.len() as u64) as usize;
        sent.push(Sent::new(k, slot, mix(salt, &[BULK, k])));
        last_sent = Instant::now();
        submit(conn, set, &sent[k as usize])
    };
    let mut pending = 0usize;
    while pending < window && (sent.len() as u64) < count {
        send_next(conn, &mut sent)?;
        pending += 1;
    }
    while pending > 0 {
        let id = receive(conn, &mut sent)?;
        if sent[id].done() {
            pending -= 1;
            if (sent.len() as u64) < count {
                send_next(conn, &mut sent)?;
                pending += 1;
            }
        }
    }
    Ok((sent, last_sent))
}

/// A started service with both connections open and the device set
/// drawn.
struct Ready {
    handle: ServiceHandle,
    tester: Conn,
    bulk: Conn,
    devices: Vec<TransferFunction>,
    warm_accepted: u64,
}

impl Ready {
    /// Closes both connections and drains the service; returns the
    /// verdicts still in flight plus the completed-device count.
    fn close(self) -> io::Result<(u64, u64)> {
        let stray = self.tester.close()? + self.bulk.close()?;
        let drained = self.handle.shutdown();
        Ok((stray, drained.telemetry.completed))
    }
}

fn set_up(seed: u64, p: Params) -> io::Result<Ready> {
    let mut config = ServiceConfig::new()
        .with_workload(p.job.twin().workload())
        .with_workers(1);
    if let Some(policy) = p.job.sequencer() {
        config = config.with_sequencer(policy);
    }
    let mut handle = config.start();
    let addr = handle.serve_tcp(0)?;
    let mut tester_conn = Conn::open(addr)?;
    let mut bulk_conn = Conn::open(addr)?;
    let zoo = p.job.twin().zoo(p.set_seed.unwrap_or(seed));
    let devices: Vec<TransferFunction> = balanced_indices(&zoo, 0, p.set_per_arch)
        .into_iter()
        .map(|i| zoo.device(i))
        .collect();
    let set = Set {
        devices: &devices,
        kind: p.job.kind(),
    };
    let warm_salt = mix(seed, &[WARM]);
    let (warm, _) = bulk(&mut bulk_conn, set, warm_salt, p.window, p.warm_bulk)?;
    let warm_rtt = tester(&mut tester_conn, set, warm_salt, |k| k < p.warm_tester)?;
    let warm_accepted = warm.iter().chain(&warm_rtt).filter(|s| s.ok()).count() as u64;
    Ok(Ready {
        handle,
        tester: tester_conn,
        bulk: bulk_conn,
        devices,
        warm_accepted,
    })
}

/// Layer figures the traced run reads off a session's client-side
/// timestamps.
#[derive(Debug, Default)]
pub struct TcpSplit {
    pub submit_to_ack_ms: Vec<f64>,
    pub ack_to_verdict_ms: Vec<f64>,
    pub frames_per_device: f64,
}

/// Runs one serve session. `setup_reps` timed set-ups (all but the last
/// torn down), then the tester and bulk connections concurrently until
/// the bulk has screened its fixed count for `seconds`; the bulk's first
/// pass over the set is the quality window. With `spans`, each submission's round trip is logged.
pub fn run(
    seed: u64,
    seconds: f64,
    setup_reps: usize,
    p: Params,
    spans: Option<&mut Spans>,
) -> io::Result<(Outcome, TcpSplit)> {
    let mut setup_s = Vec::with_capacity(setup_reps);
    let mut ready: Option<Ready> = None;
    for _ in 0..setup_reps.max(1) {
        if let Some(old) = ready.take() {
            old.close()?;
        }
        let t = Instant::now();
        ready = Some(set_up(seed, p)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut ready = ready.expect("at least one set-up");
    let devices = std::mem::take(&mut ready.devices);
    let first_pass = devices.len() as u64;
    let devices = &devices[..];
    let set = Set {
        devices,
        kind: p.job.kind(),
    };

    let frames_before = ready.tester.frames_in + ready.bulk.frames_in;
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let count = ((seconds * p.nominal_rate) as u64).max(first_pass);
    let (tester_conn, bulk_conn) = (&mut ready.tester, &mut ready.bulk);
    let (tested, bulked) = std::thread::scope(|scope| {
        let stop = &stop;
        let t = scope.spawn(move || {
            tester(tester_conn, set, seed, |_| {
                // ORDERING: Relaxed — a stop flag that publishes no other
                // data; the scope's join orders what the threads share.
                !stop.load(Ordering::Relaxed)
            })
        });
        let b = bulk(bulk_conn, set, seed, p.window, count);
        // ORDERING: Relaxed — pairs with the stop-flag load above.
        stop.store(true, Ordering::Relaxed);
        (t.join().expect("tester thread"), b)
    });
    let tested = tested?;
    let (bulked, stopped) = bulked?;
    let frames_in = ready.tester.frames_in + ready.bulk.frames_in - frames_before;
    let window_s = stopped.duration_since(start).as_secs_f64();

    // Correctness: every submission accepted and answered, every
    // verdict bit-identical to `Screener::run` on the same device and
    // `submission_rng(seed)`, and the service's own count agreeing.
    let all: Vec<&Sent> = tested.iter().chain(&bulked).collect();
    let attempted = all.len() as u64;
    let reference = p.job.screener().run(
        all.iter()
            .map(|s| (&devices[s.slot], submission_rng(s.seed))),
    );
    let mut failed = 0u64;
    for (s, r) in all.iter().zip(&reference) {
        let agrees = s.ok() && s.verdict.is_some_and(|(_, v)| same_verdict(&v, &r.verdict));
        failed += u64::from(!agrees);
    }
    let answered = all.iter().filter(|s| s.ok()).count() as u64;
    let warm_accepted = ready.warm_accepted;
    let (stray, completed) = ready.close()?;
    failed += stray;
    failed += completed.abs_diff(warm_accepted + answered);

    // Quality and checksum over the bulk's first `p.quality` submissions.
    let first: Vec<&Sent> = bulked.iter().take(p.quality).collect();
    let mut quality = Quality::default();
    let mut fnv = Fnv::new();
    for (s, good) in first.iter().zip(p.job.reference(devices, &first)) {
        if let Some((_, v)) = s.verdict {
            quality.add(good, &v);
            fnv.fold(s.id, &v);
        }
    }

    // Throughput: verdicts delivered while the bulk was still sending.
    let delivered = all
        .iter()
        .filter(|s| s.verdict.is_some_and(|(t, _)| t <= stopped))
        .count();

    let in_window = |s: &&Sent| s.verdict.is_some_and(|(t, _)| t <= stopped);
    let timed: Vec<&Sent> = tested.iter().filter(in_window).collect();
    let latency_ms: Vec<f64> = timed
        .iter()
        .filter_map(|s| s.verdict.map(|(t, _)| ms(t - s.sent)))
        .collect();
    let mut split = TcpSplit {
        frames_per_device: frames_in as f64 / answered.max(1) as f64,
        ..TcpSplit::default()
    };
    for s in &timed {
        if let (Some((a, _)), Some((v, _))) = (s.ack, s.verdict) {
            split
                .submit_to_ack_ms
                .push(ms(a.saturating_duration_since(s.sent)));
            split
                .ack_to_verdict_ms
                .push(ms(v.saturating_duration_since(a)));
        }
    }
    if let Some(log) = spans {
        for (role, list) in [("tcp.tester", &tested), ("tcp.bulk", &bulked)] {
            for s in list.iter() {
                if let (Some((a, _)), Some((v, _))) = (s.ack, s.verdict) {
                    let parent = log.record(role, s.id, None, s.sent, v);
                    log.record("tcp.submit_to_ack", s.id, Some(parent), s.sent, a);
                    log.record("tcp.ack_to_verdict", s.id, Some(parent), a, v);
                }
            }
        }
    }

    let note = format!(
        "{}: {} tester round trips ({} in window) + {} bulk submissions (window {}) \
         in {window_s:.2} s; quality window {} submissions: escapes {}, overkills {}; \
         submit→ack p50 {:.3} ms, ack→verdict p50 {:.3} ms, {:.3} frames/device",
        p.job.label(),
        tested.len(),
        latency_ms.len(),
        bulked.len(),
        p.window,
        first.len(),
        quality.escapes,
        quality.overkills,
        median(&split.submit_to_ack_ms),
        median(&split.ack_to_verdict_ms),
        split.frames_per_device,
    );
    let outcome = Outcome {
        devices_per_s: delivered as f64 / window_s,
        quality,
        attempted,
        failed,
        latency_ms,
        setup_s,
        checksum: fnv.finish(),
        note,
    };
    Ok((outcome, split))
}
