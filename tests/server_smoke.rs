//! End-to-end smoke test of the TCP server: ephemeral port, concurrent
//! clients speaking the length-prefixed protocol, losslessness asserted
//! against the single-request fused loop, cancellation, both metrics
//! endpoints, and connections closed by shutdown.

use std::sync::Arc;

use aasd::mm::{
    draft_for_depth, mm_speculative_ws, Ablation, Image, KvProjector, LlavaSim, LlavaSimConfig,
};
use aasd::serve::{Client, Engine, EngineConfig, EngineModel, Server};
use aasd::tensor::{Rng, Workspace};

/// The image seed every `SUB` below sends (`img=5`).
const IMG: u64 = 5;

/// The tiny served bundle: a LlavaSim target, its AASD draft and a KV
/// projector. Built from fixed seeds, so every call returns the same
/// models.
fn bundle() -> EngineModel {
    let cfg = LlavaSimConfig::tiny(40, 96);
    let draft = draft_for_depth(&cfg, 1, 0xB1);
    EngineModel::Multimodal {
        projector: Arc::new(KvProjector::new(
            0xB2,
            draft.cfg.n_layers,
            cfg.lm.n_layers,
            cfg.n_img(),
            cfg.k_slots(),
        )),
        model: Arc::new(LlavaSim::new(cfg, 0xB0)),
        draft: Arc::new(draft),
        ablation: Ablation::projector(),
    }
}

/// `mm_speculative_ws` on the bundle for `prompt` and image [`IMG`]: the
/// stream a served `SUB mode=spec` must reproduce.
fn one_shot(prompt: &[u32], budget: usize, gamma: usize) -> Vec<u32> {
    let EngineModel::Multimodal {
        model,
        draft,
        projector,
        ablation,
    } = bundle();
    let vision = &model.cfg.vision;
    let img = Image::synthetic(&mut Rng::new(IMG), vision.n_patches, vision.patch_dim);
    let mut ws = Workspace::new();
    let (tokens, _) = mm_speculative_ws(
        &model,
        &draft,
        Some(&projector),
        ablation,
        &img,
        prompt,
        budget,
        gamma,
        &mut ws,
    );
    tokens
}

fn start_server() -> Server {
    let engine = Engine::new(
        bundle(),
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
                        .submit(&format!(
                            "SUB mode=spec gamma=4 budget=20 prompt={plist} img={IMG}"
                        ))
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

    for (prompt, got) in &streams {
        let want = one_shot(prompt, 20, 4);
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
        c.roundtrip("SUB mode=spec budget=8 prompt=1 img=5")
            .unwrap()
            .starts_with("ERR "),
        "spec without gamma"
    );
    assert!(
        c.roundtrip("SUB mode=spec gamma=3 budget=8 prompt=999 img=5")
            .unwrap()
            .starts_with("ERR "),
        "token outside vocab"
    );
    for mode in ["mode=spec gamma=3", "mode=ar"] {
        assert!(
            c.roundtrip(&format!("SUB {mode} budget=8 prompt=1,2,3"))
                .unwrap()
                .starts_with("ERR "),
            "{mode} without img="
        );
    }
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
        .submit("SUB mode=spec gamma=3 budget=2 prompt=5 img=5")
        .expect("io")
        .expect("admitted");
    let _ = c.wait_done(warm).expect("poll");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut cancelled = false;
    for next in warm + 1..=warm + 20 {
        write_frame(
            &mut stream,
            "SUB mode=spec gamma=3 budget=120 prompt=3,7,1,9 img=5",
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
        .submit("SUB mode=spec gamma=3 budget=10 prompt=5,2 img=5")
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
    let engine = Engine::new(
        bundle(),
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
        write_frame(
            &mut stream,
            "SUB mode=spec gamma=3 budget=100 prompt=1,2,3 img=5",
        )
        .unwrap();
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
        .submit("SUB mode=spec gamma=3 budget=5 prompt=4 img=5")
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
        .submit("SUB mode=spec gamma=3 budget=60 prompt=3,7,1,9 img=5")
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
        .submit("SUB mode=spec gamma=4 budget=20 prompt=3,7,1,9 img=5")
        .expect("io")
        .expect("admitted");
    let (status, tokens) = c.wait_done(id).expect("poll");
    assert_eq!(status, "done");
    assert_eq!(
        tokens,
        one_shot(&[3, 7, 1, 9], 20, 4),
        "served stream != fused loop"
    );

    // Load the server with long-budget requests so SHUTDOWN arrives while
    // sessions are mid-speculation.
    let ids: Vec<u64> = (0..4)
        .map(|i| {
            c.submit(&format!(
                "SUB mode=spec gamma=3 budget=120 prompt={},7,1,9 img=5",
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

/// A connection open across the server's shutdown: shutdown closes it and
/// joins its handler, so a submit on it gets no reply and nothing is
/// queued. (The engine-level refusal, `ERR engine is shut down`, is
/// `serve_drain_finishes_in_flight_sessions`'s.)
#[test]
fn submit_after_shutdown_is_refused() {
    let mut server = start_server();
    let mut c = Client::connect(server.addr()).expect("connect");
    // One roundtrip first, so the connection's handler thread is running.
    assert!(c
        .roundtrip("METRICS")
        .unwrap()
        .contains("aasd_requests_submitted_total 0"));
    let engine = Arc::clone(server.engine());
    server.shutdown();
    let reply = c.roundtrip("SUB mode=spec gamma=3 budget=8 prompt=1,2,3 img=5");
    assert!(reply.is_err(), "a closed connection answered {reply:?}");
    assert_eq!(engine.metrics().requests_submitted.get(), 0);
    assert_eq!(engine.metrics().queue_depth.get(), 0);
}

/// An idle client does not outlive shutdown, and neither does the engine:
/// the client reads EOF, and once the server and the test's own `Arc` are
/// gone nothing holds the engine (its KV pools, models and scheduler crew)
/// alive.
#[test]
fn shutdown_closes_idle_connections_and_frees_the_engine() {
    let mut server = start_server();
    let mut idle = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut c = Client::connect(server.addr()).expect("connect");
    // A roundtrip on a later connection: the accept loop has registered
    // the idle one by now.
    assert!(c.roundtrip("METRICS").unwrap().contains("aasd_"));
    let engine = Arc::downgrade(server.engine());
    server.shutdown();
    idle.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 1];
    let read = std::io::Read::read(&mut idle, &mut buf);
    assert_eq!(read.ok(), Some(0), "the idle client must read EOF");
    drop(server);
    assert!(engine.upgrade().is_none(), "the engine outlived its server");
}
