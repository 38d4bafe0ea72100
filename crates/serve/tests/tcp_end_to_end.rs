//! Full TCP round trips against a live service: submissions go out as
//! length-prefixed frames, acks and verdicts stream back, telemetry
//! arrives as flat perf-record JSON, and `Done` elicits `Finished`
//! only after every accepted verdict has been delivered. Every client
//! reads with a timeout, so a hung session fails its test instead of
//! stalling the suite.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bist_adc::spec::LinearitySpec;
use bist_adc::types::Resolution;
use bist_core::config::BistConfig;
use bist_core::dynamic::DynamicConfig;
use bist_core::screener::{Screener, Workload};
use bist_mc::batch::Batch;
use bist_serve::protocol::{read_frame, write_frame};
use bist_serve::{
    submission_rng, AckStatus, ClientFrame, JobKind, ServerFrame, ServiceConfig, Submission,
};

fn static_workload() -> Workload {
    let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(5)
        .build()
        .expect("paper-range counter");
    Workload::static_ramp(config)
}

fn dyn_workload() -> Workload {
    Workload::dynamic_sine(DynamicConfig::new(Resolution::SIX_BIT, 512, 127).expect("coherent"))
}

/// How long any client read may wait before the test fails.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A client connection shaped like perfbench's tester: buffered
/// halves, each frame sent in one write (one flush per frame), no
/// socket options beyond the read timeout.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    frame: Vec<u8>,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: BufWriter::new(stream),
            frame: Vec::new(),
            buf: Vec::new(),
        }
    }

    fn send(&mut self, frame: &ClientFrame) {
        frame.encode(&mut self.frame);
        write_frame(&mut self.writer, &self.frame).expect("write frame");
        self.writer.flush().expect("flush");
    }

    /// The next server frame, `None` at end of stream; panics on a read
    /// timeout.
    fn recv(&mut self) -> Option<ServerFrame> {
        let bytes = read_frame(&mut self.reader, &mut self.buf).expect("read frame")?;
        Some(ServerFrame::decode(bytes).expect("decode server frame"))
    }
}

/// `Screener::run`'s verdicts for `subs` under `workload`, as sorted
/// `(submission id, verdict)` pairs.
fn reference(workload: Workload, subs: &[Submission]) -> Vec<(u64, String)> {
    let reports =
        Screener::new(workload).run(subs.iter().map(|s| (s.adc.clone(), submission_rng(s.seed))));
    let mut expect: Vec<(u64, String)> = reports
        .iter()
        .map(|r| (subs[r.device].id, format!("{:?}", r.verdict)))
        .collect();
    expect.sort();
    expect
}

fn static_submission(batch: &Batch, i: usize, seed: u64) -> Submission {
    Submission {
        id: i as u64,
        kind: JobKind::Static,
        adc: batch.device(i),
        seed,
    }
}

/// Eight mixed devices over TCP: every submission acked `Accepted`,
/// every verdict bit-identical to `Screener::run`, telemetry parseable,
/// `Finished` after the last verdict.
#[test]
fn tcp_session_streams_reference_verdicts() {
    const N_STATIC: usize = 5;
    const N_DYN: usize = 3;
    let mut handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workload(dyn_workload())
        .with_workers(2)
        .start();
    let addr = handle.serve_tcp(0).expect("bind localhost");

    let batch = Batch::paper_simulation(1997, N_STATIC + N_DYN);
    let subs: Vec<Submission> = (0..N_STATIC + N_DYN)
        .map(|i| Submission {
            id: i as u64,
            kind: if i < N_STATIC {
                JobKind::Static
            } else {
                JobKind::Dynamic
            },
            adc: batch.device(i),
            seed: 7 + i as u64,
        })
        .collect();

    // Reference verdicts from the one-shot engine, keyed by id.
    let mut expect = Vec::new();
    for (workload, kind) in [
        (static_workload(), JobKind::Static),
        (dyn_workload(), JobKind::Dynamic),
    ] {
        let group: Vec<Submission> = subs.iter().filter(|s| s.kind == kind).cloned().collect();
        expect.extend(reference(workload, &group));
    }
    expect.sort();

    let mut client = Client::connect(addr);
    for sub in &subs {
        client.send(&ClientFrame::Submit(sub.clone()));
    }
    client.send(&ClientFrame::Telemetry);
    client.send(&ClientFrame::Done);

    let mut acks = Vec::new();
    let mut got = Vec::new();
    let mut telemetry_json = None;
    let mut finished = false;
    while let Some(frame) = client.recv() {
        match frame {
            ServerFrame::Ack { id, status } => {
                assert_eq!(status, AckStatus::Accepted, "device {id} should queue");
                acks.push(id);
            }
            ServerFrame::Verdict(v) => got.push((v.id, format!("{:?}", v.verdict))),
            ServerFrame::Telemetry(json) => telemetry_json = Some(json),
            ServerFrame::Finished => {
                finished = true;
                break;
            }
        }
    }
    assert!(finished, "session must end with Finished");
    acks.sort_unstable();
    assert_eq!(acks, (0..subs.len() as u64).collect::<Vec<_>>());
    got.sort();
    assert_eq!(got, expect, "TCP verdicts must match Screener::run");

    let json = telemetry_json.expect("telemetry snapshot requested");
    assert!(json.contains("\"metrics\""), "snapshot is perf-record JSON");
    assert!(json.contains("\"scenario\": \"bist_serve_telemetry\""));

    let report = handle.shutdown();
    assert_eq!(report.telemetry.completed, subs.len() as u64);
}

/// Two concurrent sessions reusing the same submission ids: bursts mix
/// jobs from every session, so routing must go by burst slot, not by
/// the caller-chosen id. Each client must get its own devices'
/// verdicts (bit-identical to `Screener::run` on its own fleet) and
/// both sessions must reach `Finished` — misrouting would starve one
/// writer of a verdict and hang it before `Finished`.
#[test]
fn colliding_ids_across_sessions_route_per_session() {
    const N: usize = 8;
    let mut handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workers(1)
        .start();
    let addr = handle.serve_tcp(0).expect("bind localhost");

    let run_client = |batch_seed: u64| {
        let batch = Batch::paper_simulation(batch_seed, N);
        // Both sessions use ids 0..N — deliberately colliding.
        let subs: Vec<Submission> = (0..N)
            .map(|i| static_submission(&batch, i, batch_seed * 1000 + i as u64))
            .collect();
        let expect = reference(static_workload(), &subs);

        let mut client = Client::connect(addr);
        for sub in &subs {
            client.send(&ClientFrame::Submit(sub.clone()));
        }
        client.send(&ClientFrame::Done);
        let mut got = Vec::new();
        let mut finished = false;
        while let Some(frame) = client.recv() {
            match frame {
                ServerFrame::Ack { id, status } => {
                    assert_eq!(status, AckStatus::Accepted, "device {id} should queue");
                }
                ServerFrame::Verdict(v) => got.push((v.id, format!("{:?}", v.verdict))),
                ServerFrame::Telemetry(_) => {}
                ServerFrame::Finished => {
                    finished = true;
                    break;
                }
            }
        }
        assert!(finished, "session {batch_seed} must reach Finished");
        got.sort();
        assert_eq!(
            got, expect,
            "session {batch_seed} got another session's verdicts"
        );
    };

    std::thread::scope(|s| {
        s.spawn(|| run_client(1));
        s.spawn(|| run_client(2));
    });
    handle.shutdown();
}

/// A service resident for statics only rejects dynamic submissions
/// with an explicit ack — and still screens the statics that follow.
#[test]
fn unrouted_kind_is_rejected_not_dropped() {
    let mut handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workers(1)
        .start();
    let addr = handle.serve_tcp(0).expect("bind localhost");

    let batch = Batch::paper_simulation(3, 2);
    let mut client = Client::connect(addr);
    client.send(&ClientFrame::Submit(Submission {
        id: 0,
        kind: JobKind::Dynamic,
        adc: batch.device(0),
        seed: 0,
    }));
    client.send(&ClientFrame::Submit(static_submission(&batch, 1, 1)));
    client.send(&ClientFrame::Done);

    let mut verdict_ids = Vec::new();
    let mut statuses = Vec::new();
    while let Some(frame) = client.recv() {
        match frame {
            ServerFrame::Ack { id, status } => statuses.push((id, status)),
            ServerFrame::Verdict(v) => verdict_ids.push(v.id),
            ServerFrame::Telemetry(_) => {}
            ServerFrame::Finished => break,
        }
    }
    statuses.sort_by_key(|&(id, _)| id);
    assert_eq!(
        statuses,
        vec![(0, AckStatus::Rejected), (1, AckStatus::Accepted)]
    );
    assert_eq!(verdict_ids, vec![1], "only the accepted device verdicts");
    handle.shutdown();
}

/// Malformed bytes close the session without taking the service down:
/// a fresh connection afterwards still screens devices.
#[test]
fn malformed_frame_closes_session_service_survives() {
    let mut handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workers(1)
        .start();
    let addr = handle.serve_tcp(0).expect("bind localhost");

    {
        let mut bad = TcpStream::connect(addr).expect("connect");
        bad.set_read_timeout(Some(READ_TIMEOUT))
            .expect("read timeout");
        // A frame with an unknown tag: the server drops the session.
        write_frame(&mut bad, &[0x5a, 1, 2, 3]).expect("write");
        bad.flush().expect("flush");
        let mut buf = Vec::new();
        // Read until EOF; the server may or may not flush partial
        // events first but must close.
        while read_frame(&mut bad, &mut buf).ok().flatten().is_some() {}
    }

    let mut client = Client::connect(addr);
    client.send(&ClientFrame::Submit(Submission {
        id: 42,
        kind: JobKind::Static,
        adc: Batch::paper_simulation(11, 1).device(0),
        seed: 11,
    }));
    client.send(&ClientFrame::Done);
    let mut verdicts = 0;
    while let Some(frame) = client.recv() {
        match frame {
            ServerFrame::Verdict(v) => {
                assert_eq!(v.id, 42);
                verdicts += 1;
            }
            ServerFrame::Finished => break,
            _ => {}
        }
    }
    assert_eq!(verdicts, 1, "the service survives a poisoned session");
    handle.shutdown();
}

/// A closed-loop tester (one submission in flight, each frame sent in
/// one write) must get its Ack and Verdict back well inside one
/// delayed-ACK period. If the session left Nagle's algorithm on, the
/// Verdict frame would wait behind the unacknowledged Ack frame until
/// the client's delayed ACK fired: ~40 ms per round trip.
#[test]
fn closed_loop_round_trip_does_not_stall() {
    const ROUND_TRIPS: usize = 40;
    let mut handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workers(1)
        .start();
    let addr = handle.serve_tcp(0).expect("bind localhost");

    let batch = Batch::paper_simulation(2026, ROUND_TRIPS);
    let mut client = Client::connect(addr);
    let mut rtt = Vec::with_capacity(ROUND_TRIPS);
    for i in 0..ROUND_TRIPS {
        let id = i as u64;
        let start = Instant::now();
        client.send(&ClientFrame::Submit(static_submission(&batch, i, id)));
        let (mut acked, mut screened) = (false, false);
        while !(acked && screened) {
            match client.recv().expect("session open") {
                ServerFrame::Ack { id: got, status } => {
                    assert_eq!((got, status), (id, AckStatus::Accepted));
                    acked = true;
                }
                ServerFrame::Verdict(v) => {
                    assert_eq!(v.id, id);
                    screened = true;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        rtt.push(start.elapsed());
    }
    client.send(&ClientFrame::Done);
    assert!(matches!(client.recv(), Some(ServerFrame::Finished)));
    handle.shutdown();

    // The stall cannot be shorter than Linux's 40 ms minimum
    // delayed-ACK timeout (it reads ~44 ms), while a stall-free round
    // trip takes ~0.1 ms. A 30 ms bar on the median sits between the
    // two, so a loaded runner slowing the debug build by 100x still
    // passes and the stall never does.
    rtt.sort_unstable();
    let median = rtt[ROUND_TRIPS / 2];
    assert!(
        median < Duration::from_millis(30),
        "median Submit -> Ack + Verdict round trip {median:?}: the session stalls"
    );
}

/// 64 submissions pipelined on one session: every Ack and Verdict must
/// arrive *before* the client says `Done`. A writer that blocks for
/// the next event while frames still sit in its write buffer fails
/// here on the read timeout; reading only after `Done` would not show
/// it, because `Finished` flushes.
#[test]
fn pipelined_session_delivers_before_done() {
    const N: usize = 64;
    let mut handle = ServiceConfig::new()
        .with_workload(static_workload())
        .with_workers(1)
        .start();
    let addr = handle.serve_tcp(0).expect("bind localhost");

    let batch = Batch::paper_simulation(64, N);
    let subs: Vec<Submission> = (0..N)
        .map(|i| static_submission(&batch, i, 100 + i as u64))
        .collect();
    let mut client = Client::connect(addr);
    for sub in &subs {
        client.send(&ClientFrame::Submit(sub.clone()));
    }
    let mut acks = Vec::new();
    let mut got = Vec::new();
    while acks.len() < N || got.len() < N {
        match client.recv().expect("session open before Done") {
            ServerFrame::Ack { id, status } => {
                assert_eq!(status, AckStatus::Accepted, "device {id} should queue");
                acks.push(id);
            }
            ServerFrame::Verdict(v) => got.push((v.id, format!("{:?}", v.verdict))),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    acks.sort_unstable();
    assert_eq!(acks, (0..N as u64).collect::<Vec<_>>());
    got.sort();
    assert_eq!(got, reference(static_workload(), &subs));

    client.send(&ClientFrame::Done);
    assert!(matches!(client.recv(), Some(ServerFrame::Finished)));
    handle.shutdown();
}
