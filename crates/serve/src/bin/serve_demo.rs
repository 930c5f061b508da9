//! Demo: start an aasd-serve server on an ephemeral port, run a handful of
//! concurrent speculative requests through the TCP protocol, and print the
//! metrics endpoint.
//!
//! ```text
//! cargo run --release -p aasd-serve --bin serve_demo
//! ```

use std::sync::Arc;

use aasd_nn::{Decoder, DecoderConfig};
use aasd_serve::{Client, Engine, EngineConfig, EngineModel, Server};

fn main() {
    let target = Arc::new(Decoder::new(DecoderConfig::bench_target(256, 256), 42));
    let draft = Arc::new(Decoder::new(DecoderConfig::bench_draft(256, 256), 43));
    let engine = Engine::new(
        EngineModel::Text { target, draft },
        EngineConfig {
            slots: 4,
            workers: 1,
            max_queue: 32,
            ..EngineConfig::default()
        },
    );
    let mut server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    println!("serving on {}", server.addr());

    let mut clients: Vec<(u64, Client)> = Vec::new();
    for i in 0..6u64 {
        let mut c = Client::connect(server.addr()).expect("connect");
        let cmd = format!(
            "SUB mode=spec gamma=5 budget=48 prompt={},{},{}",
            3 + i,
            7,
            11 + i
        );
        let id = c.submit(&cmd).expect("io").expect("admitted");
        println!("submitted request {id}: {cmd}");
        clients.push((id, c));
    }
    for (id, c) in &mut clients {
        let (status, tokens) = c.wait_done(*id).expect("poll");
        println!(
            "request {id}: {status}, {} tokens, head = {:?}",
            tokens.len(),
            &tokens[..tokens.len().min(8)]
        );
    }

    let mut c = Client::connect(server.addr()).expect("connect");
    println!("\n--- METRICS ---\n{}", c.roundtrip("METRICS").expect("io"));
    server.shutdown();
}
