//! End-to-end smoke test of the TCP server: ephemeral port, concurrent
//! clients speaking the length-prefixed protocol, losslessness asserted
//! against the single-request fused loop, cancellation, and both metrics
//! endpoints.

use std::sync::Arc;

use aasd::nn::{Decoder, DecoderConfig};
use aasd::serve::{Client, Engine, EngineConfig, EngineModel, Server};
use aasd::specdec::speculative_greedy_with_budget_ws;
use aasd::tensor::Workspace;

fn start_server() -> Server {
    let target = Arc::new(Decoder::new(DecoderConfig::tiny(40), 10));
    let draft = Arc::new(Decoder::new(DecoderConfig::tiny(40), 20));
    let engine = Engine::new(
        EngineModel::Text { target, draft },
        EngineConfig {
            slots: 2,
            max_queue: 16,
            ..EngineConfig::default()
        },
    );
    Server::start(engine, "127.0.0.1:0").expect("bind ephemeral port")
}

/// Three concurrent clients submit speculative requests over TCP; every
/// completion must equal the one-shot fused loop on the same models.
#[test]
fn concurrent_clients_get_lossless_completions() {
    let server = start_server();
    let addr = server.addr();
    let prompts: [Vec<u32>; 3] = [vec![3, 7, 1, 9], vec![5, 2], vec![8, 8, 8]];

    let streams: Vec<(Vec<u32>, Vec<u32>)> = std::thread::scope(|s| {
        let handles: Vec<_> = prompts
            .iter()
            .map(|prompt| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let plist = prompt
                        .iter()
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                        .join(",");
                    let id = c
                        .submit(&format!("SUB mode=spec gamma=4 budget=20 prompt={plist}"))
                        .expect("io")
                        .expect("admitted");
                    let (status, tokens) = c.wait_done(id).expect("poll");
                    assert_eq!(status, "done");
                    (prompt.clone(), tokens)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let target = Decoder::new(DecoderConfig::tiny(40), 10);
    let draft = Decoder::new(DecoderConfig::tiny(40), 20);
    let mut ws = Workspace::new();
    for (prompt, got) in &streams {
        let (want, _) = speculative_greedy_with_budget_ws(&target, &draft, prompt, 20, 4, &mut ws);
        assert_eq!(*got, want, "served stream for {prompt:?} != fused loop");
    }
}

/// Protocol errors come back as ERR frames without killing the connection;
/// cancel works over the wire; metrics render in both formats.
#[test]
fn protocol_errors_cancel_and_metrics() {
    let server = start_server();
    let mut c = Client::connect(server.addr()).expect("connect");

    // Parse and validation errors keep the connection alive.
    assert!(c.roundtrip("GIBBERISH").unwrap().starts_with("ERR "));
    assert!(
        c.roundtrip("SUB mode=spec budget=8 prompt=1")
            .unwrap()
            .starts_with("ERR "),
        "spec without gamma"
    );
    assert!(
        c.roundtrip("SUB mode=spec gamma=3 budget=8 prompt=999")
            .unwrap()
            .starts_with("ERR "),
        "token outside vocab"
    );
    assert!(c.roundtrip("POLL 424242").unwrap().starts_with("ERR "));
    assert!(c.roundtrip("CANCEL 424242").unwrap().starts_with("ERR "));

    // Cancel a request over the wire. A tiny model drains its whole budget
    // faster than a second client roundtrip, so the CANCEL frame must already
    // be sitting in the connection buffer when the SUB is processed: learn
    // the sequential id counter from a warm-up request, then pipeline
    // SUB+CANCEL back-to-back and retry the race. A request that still
    // finishes first must report ERR on cancel and "done" on poll.
    use aasd::serve::proto::{read_frame, write_frame};
    let warm = c
        .submit("SUB mode=spec gamma=3 budget=2 prompt=5")
        .expect("io")
        .expect("admitted");
    let _ = c.wait_done(warm).expect("poll");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut cancelled = false;
    for next in warm + 1..=warm + 20 {
        write_frame(
            &mut stream,
            "SUB mode=spec gamma=3 budget=120 prompt=3,7,1,9",
        )
        .unwrap();
        write_frame(&mut stream, &format!("CANCEL {next}")).unwrap();
        let sub = read_frame(&mut stream).unwrap().expect("sub reply");
        assert_eq!(sub, format!("OK {next}"), "ids must be sequential");
        let reply = read_frame(&mut stream).unwrap().expect("cancel reply");
        if reply == format!("OK {next}") {
            let (status, _) = c.wait_done(next).expect("poll");
            assert_eq!(status, "cancelled");
            cancelled = true;
            break;
        }
        assert!(
            reply.starts_with("ERR "),
            "unexpected cancel reply: {reply}"
        );
        let (status, _) = c.wait_done(next).expect("poll");
        assert_eq!(status, "done");
    }
    assert!(cancelled, "pipelined cancel never beat a budget-120 decode");

    // A fresh request still completes after the cancel.
    let id2 = c
        .submit("SUB mode=spec gamma=3 budget=10 prompt=5,2")
        .expect("io")
        .expect("admitted");
    let (status2, tokens2) = c.wait_done(id2).expect("poll");
    assert_eq!(status2, "done");
    assert_eq!(tokens2.len(), 10);

    // Metrics endpoints reflect the traffic: warm-up + ≥1 raced submit +
    // id2 were admitted, and exactly one cancel landed.
    let text = c.roundtrip("METRICS").unwrap();
    let submitted: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("aasd_requests_submitted_total "))
        .expect("submitted counter present")
        .trim()
        .parse()
        .unwrap();
    assert!(submitted >= 3, "{text}");
    assert!(text.contains("aasd_requests_cancelled_total 1"), "{text}");
    let json = c.roundtrip("METRICS_JSON").unwrap();
    assert!(json.contains("\"completed\":"), "{json}");
    // Hand-rolled JSON must at least be brace-balanced.
    let opens = json.matches('{').count();
    assert_eq!(opens, json.matches('}').count());
}

/// Admission control over the wire: when queue + slots are saturated the
/// server answers BUSY, and the client can retry later successfully.
#[test]
fn busy_then_retry() {
    let target = Arc::new(Decoder::new(DecoderConfig::tiny(40), 10));
    let draft = Arc::new(Decoder::new(DecoderConfig::tiny(40), 20));
    let engine = Engine::new(
        EngineModel::Text { target, draft },
        EngineConfig {
            slots: 1,
            workers: 1,
            max_queue: 1,
            ..EngineConfig::default()
        },
    );
    let server = Server::start(engine, "127.0.0.1:0").expect("bind");

    // Pipeline a burst of submits — write every frame before reading any
    // reply, so they reach the server back-to-back (microseconds apart)
    // while the first request is still decoding. With one slot and queue
    // cap 1, the burst must overflow into BUSY.
    use aasd::serve::proto::{read_frame, write_frame};
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    const BURST: usize = 30;
    for _ in 0..BURST {
        write_frame(&mut stream, "SUB mode=spec gamma=3 budget=100 prompt=1,2,3").unwrap();
    }
    let mut ids = Vec::new();
    let mut busy = 0usize;
    for _ in 0..BURST {
        let reply = read_frame(&mut stream).unwrap().expect("reply");
        match reply.strip_prefix("OK ") {
            Some(id) => ids.push(id.parse::<u64>().unwrap()),
            None => {
                assert_eq!(reply, "BUSY");
                busy += 1;
            }
        }
    }
    assert!(busy > 0, "queue cap 1 never produced BUSY");
    assert_eq!(ids.len() + busy, BURST);
    let mut c = Client::connect(server.addr()).expect("connect");
    // Everything admitted still finishes, after which a retry is accepted.
    for id in ids {
        let (status, _) = c.wait_done(id).unwrap();
        assert_eq!(status, "done");
    }
    let id = c
        .submit("SUB mode=spec gamma=3 budget=5 prompt=4")
        .unwrap()
        .expect("retry after drain should be admitted");
    let (status, tokens) = c.wait_done(id).unwrap();
    assert_eq!(status, "done");
    assert_eq!(tokens.len(), 5);
}

/// Shutdown drains cleanly: in-flight requests end in a terminal state and
/// the server threads join without hanging.
#[test]
fn shutdown_drains_in_flight_requests() {
    let server = start_server();
    let mut c = Client::connect(server.addr()).expect("connect");
    let id = c
        .submit("SUB mode=spec gamma=3 budget=60 prompt=3,7,1,9")
        .expect("io")
        .expect("admitted");
    let engine = Arc::clone(server.engine());
    let mut server = server;
    server.shutdown();
    // After shutdown the request is terminal (done if it beat the drain,
    // cancelled otherwise) — never stuck queued/running.
    let (status, _) = engine.poll(id).expect("handle survives shutdown");
    assert!(matches!(
        status,
        aasd::serve::Status::Done | aasd::serve::Status::Cancelled
    ));
}

/// Server end to end under load: a completed request matches the fused
/// loop over TCP, and a SHUTDOWN that lands while long-budget requests are
/// mid-speculation (two running, the rest queued) drains promptly with
/// every one of them in a terminal state.
#[test]
fn shutdown_mid_load_drains_within_bound() {
    let server = start_server();
    let addr = server.addr();

    // Warm-up: one completed request proves the sched thread serves
    // traffic and matches the fused loop.
    let mut c = Client::connect(addr).expect("connect");
    let id = c
        .submit("SUB mode=spec gamma=4 budget=20 prompt=3,7,1,9")
        .expect("io")
        .expect("admitted");
    let (status, tokens) = c.wait_done(id).expect("poll");
    assert_eq!(status, "done");
    let target = Decoder::new(DecoderConfig::tiny(40), 10);
    let draft = Decoder::new(DecoderConfig::tiny(40), 20);
    let mut ws = Workspace::new();
    let (want, _) =
        speculative_greedy_with_budget_ws(&target, &draft, &[3, 7, 1, 9], 20, 4, &mut ws);
    assert_eq!(tokens, want, "served stream != fused loop");

    // Load the server with long-budget requests so SHUTDOWN arrives while
    // sessions are mid-speculation.
    let ids: Vec<u64> = (0..4)
        .map(|i| {
            c.submit(&format!(
                "SUB mode=spec gamma=3 budget=120 prompt={},7,1,9",
                3 + i
            ))
            .expect("io")
            .expect("admitted")
        })
        .collect();
    let engine = Arc::clone(server.engine());
    let started = std::time::Instant::now();
    let mut server = server;
    server.shutdown();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "shutdown took {:?}",
        started.elapsed()
    );
    for id in ids {
        let (status, _) = engine.poll(id).expect("handle survives shutdown");
        assert!(
            matches!(
                status,
                aasd::serve::Status::Done | aasd::serve::Status::Cancelled
            ),
            "request {id} left non-terminal: {status:?}"
        );
    }
}
