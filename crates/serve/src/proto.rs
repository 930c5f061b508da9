//! The wire protocol: length-prefixed UTF-8 text frames over TCP.
//!
//! Every frame is a big-endian `u32` byte length followed by that many bytes
//! of UTF-8. Requests and responses are single frames, so the protocol is
//! trivially implementable from any language with a socket (`printf`-style
//! clients included) while staying unambiguous about message boundaries —
//! no sentinel bytes inside payloads to escape.
//!
//! Commands (client → server):
//!
//! ```text
//! SUB mode=spec gamma=4 budget=32 prompt=3,7,1,9 img=SEED
//! SUB mode=ar budget=32 prompt=3,7,1,9 img=SEED
//! POLL <id>
//! CANCEL <id>
//! METRICS          # Prometheus-style text
//! METRICS_JSON     # same registry as JSON
//! SHUTDOWN
//! ```
//!
//! Responses (server → client):
//!
//! ```text
//! OK <id>                     # SUB accepted
//! BUSY                        # admission control rejected (retry later)
//! ERR <message>               # invalid request / unknown id / parse error / shut down
//! TOK <status> <n> t1,t2,..   # POLL: status ∈ queued|running|done|cancelled
//! ```

use std::io::{self, Read, Write};

use crate::request::{DecodeMode, Request, RequestId, Status};

/// Upper bound on a frame payload; anything larger is a protocol error
/// (guards the server against a hostile or confused client asking it to
/// buffer gigabytes).
pub const MAX_FRAME: usize = 1 << 20;

/// Write one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, msg: &str) -> io::Result<()> {
    let bytes = msg.as_bytes();
    assert!(bytes.len() <= MAX_FRAME, "frame exceeds MAX_FRAME");
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary (no header
/// byte arrived). EOF inside the header or the payload is an error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<String>> {
    let mut head = Vec::with_capacity(4);
    r.by_ref().take(4).read_to_end(&mut head)?;
    let len = match head[..] {
        [] => return Ok(None),
        [a, b, c, d] => u32::from_be_bytes([a, b, c, d]) as usize,
        _ => return Err(io::ErrorKind::UnexpectedEof.into()),
    };
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME}"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// A parsed client command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    Submit(Request),
    Poll(RequestId),
    Cancel(RequestId),
    Metrics,
    MetricsJson,
    Shutdown,
}

/// Parse one command frame.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let mut parts = line.split_whitespace();
    let verb = parts.next().ok_or("empty command")?;
    match verb {
        "SUB" => parse_submit(parts).map(Command::Submit),
        "POLL" => parse_id(parts).map(Command::Poll),
        "CANCEL" => parse_id(parts).map(Command::Cancel),
        "METRICS" => Ok(Command::Metrics),
        "METRICS_JSON" => Ok(Command::MetricsJson),
        "SHUTDOWN" => Ok(Command::Shutdown),
        other => Err(format!("unknown command {other}")),
    }
}

fn parse_id<'a>(mut parts: impl Iterator<Item = &'a str>) -> Result<RequestId, String> {
    parts
        .next()
        .ok_or("missing request id")?
        .parse::<RequestId>()
        .map_err(|e| format!("bad request id: {e}"))
}

fn parse_submit<'a>(parts: impl Iterator<Item = &'a str>) -> Result<Request, String> {
    let mut mode: Option<&str> = None;
    let mut gamma: Option<usize> = None;
    let mut budget: Option<usize> = None;
    let mut prompt: Option<Vec<u32>> = None;
    let mut img: Option<u64> = None;
    for kv in parts {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("bad field {kv}"))?;
        match k {
            "mode" => mode = Some(v),
            "gamma" => gamma = Some(v.parse().map_err(|e| format!("bad gamma: {e}"))?),
            "budget" => budget = Some(v.parse().map_err(|e| format!("bad budget: {e}"))?),
            "img" => img = Some(v.parse().map_err(|e| format!("bad img seed: {e}"))?),
            "prompt" => {
                let toks: Result<Vec<u32>, _> = v.split(',').map(|t| t.parse::<u32>()).collect();
                prompt = Some(toks.map_err(|e| format!("bad prompt: {e}"))?);
            }
            other => return Err(format!("unknown field {other}")),
        }
    }
    let mode = match mode.ok_or("missing mode")? {
        "spec" => DecodeMode::Speculative {
            gamma: gamma.ok_or("mode=spec requires gamma")?,
        },
        "ar" => DecodeMode::Autoregressive,
        other => return Err(format!("unknown mode {other}")),
    };
    Ok(Request {
        prompt: prompt.ok_or("missing prompt")?,
        max_new: budget.ok_or("missing budget")?,
        mode,
        image_seed: img,
    })
}

/// Format a `TOK` poll response.
pub fn format_poll(status: Status, tokens: &[u32]) -> String {
    let status = match status {
        Status::Queued => "queued",
        Status::Running => "running",
        Status::Done => "done",
        Status::Cancelled => "cancelled",
    };
    let mut out = format!("TOK {status} {}", tokens.len());
    if !tokens.is_empty() {
        out.push(' ');
        for (i, t) in tokens.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_string());
        }
    }
    out
}

/// Parse a `TOK` response back into (status, tokens) — the client half.
pub fn parse_poll(line: &str) -> Result<(Status, Vec<u32>), String> {
    let mut parts = line.split_whitespace();
    match parts.next() {
        Some("TOK") => {}
        other => return Err(format!("expected TOK, got {other:?}")),
    }
    let status = match parts.next().ok_or("missing status")? {
        "queued" => Status::Queued,
        "running" => Status::Running,
        "done" => Status::Done,
        "cancelled" => Status::Cancelled,
        other => return Err(format!("unknown status {other}")),
    };
    let n: usize = parts
        .next()
        .ok_or("missing count")?
        .parse()
        .map_err(|e| format!("bad count: {e}"))?;
    let tokens = match parts.next() {
        None => Vec::new(),
        Some(list) => list
            .split(',')
            .map(|t| t.parse::<u32>())
            .collect::<Result<Vec<u32>, _>>()
            .map_err(|e| format!("bad token: {e}"))?,
    };
    if tokens.len() != n {
        return Err(format!("count {n} != {} tokens", tokens.len()));
    }
    Ok((status, tokens))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello frames").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello frames"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "whole").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    /// A peer that sends part of a header and hangs up did not close
    /// cleanly.
    #[test]
    fn torn_header_is_an_error() {
        let err = read_frame(&mut io::Cursor::new([0u8, 0])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn submit_command_roundtrip() {
        let cmd = parse_command("SUB mode=spec gamma=4 budget=32 prompt=3,7,1,9").unwrap();
        assert_eq!(
            cmd,
            Command::Submit(Request {
                prompt: vec![3, 7, 1, 9],
                max_new: 32,
                mode: DecodeMode::Speculative { gamma: 4 },
                image_seed: None,
            })
        );
        let cmd = parse_command("SUB mode=ar budget=8 prompt=1 img=77").unwrap();
        assert_eq!(
            cmd,
            Command::Submit(Request {
                prompt: vec![1],
                max_new: 8,
                mode: DecodeMode::Autoregressive,
                image_seed: Some(77),
            })
        );
        assert_eq!(parse_command("POLL 12").unwrap(), Command::Poll(12));
        assert_eq!(parse_command("CANCEL 3").unwrap(), Command::Cancel(3));
        assert_eq!(parse_command("METRICS").unwrap(), Command::Metrics);
        assert_eq!(parse_command("METRICS_JSON").unwrap(), Command::MetricsJson);
        assert_eq!(parse_command("SHUTDOWN").unwrap(), Command::Shutdown);
    }

    #[test]
    fn bad_commands_are_errors() {
        for bad in [
            "",
            "NOPE",
            "SUB mode=spec budget=8 prompt=1", // spec without gamma
            "SUB mode=warp budget=8 prompt=1", // unknown mode
            "SUB mode=ar prompt=1",            // missing budget
            "SUB mode=ar budget=8",            // missing prompt
            "SUB mode=ar budget=8 prompt=1,x", // bad token
            "SUB mode=ar budget=8 prompt=1 z=2", // unknown field
            "POLL",
            "POLL abc",
        ] {
            assert!(parse_command(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn poll_response_roundtrip() {
        for (status, tokens) in [
            (Status::Queued, vec![]),
            (Status::Running, vec![5u32, 9, 2]),
            (Status::Done, vec![1]),
            (Status::Cancelled, vec![4, 4]),
        ] {
            let line = format_poll(status, &tokens);
            assert_eq!(parse_poll(&line).unwrap(), (status, tokens));
        }
        assert!(parse_poll("TOK done 2 1").is_err(), "count mismatch");
        assert!(parse_poll("OK 3").is_err());
    }
}
