//! The `zskip serve` wire protocol: newline-delimited JSON over any
//! byte stream (stdin/stdout or a TCP connection).
//!
//! One request per line, one response object per line; responses stream
//! back in **completion order**, not submission order — clients match on
//! the echoed `id`. The full schema (with examples and the backpressure
//! and shutdown semantics) is specified in `docs/SERVING.md`; the shapes
//! in one glance:
//!
//! ```text
//! → {"op":"infer","id":"r1","seed":7}
//! → {"op":"infer","id":"r2","image":[0.5,-0.25,...]}
//! ← {"id":"r1","ok":true,"argmax":3,"output":[...],"queue_us":412,...}
//! ← {"id":"r2","ok":false,"code":"dma.parity","error":"..."}
//! → {"op":"stats"}
//! ← {"ok":true,"op":"stats","served":2,...,"p50_us":913,"p99_us":2100}
//! → {"op":"shutdown"}
//! ← {"ok":true,"op":"shutdown","draining":true}
//! ```
//!
//! Framing failures (a line that is not JSON) get an `id: null` error
//! response with code `serve.protocol`; well-formed JSON that is not a
//! valid request gets `serve.bad-request`, echoing the `id` when one was
//! present. A full queue answers `serve.overloaded` — the request was
//! **not** enqueued and may be retried. A line longer than
//! [`MAX_LINE_BYTES`] is never buffered: it is skipped to its newline and
//! answered with `serve.bad-request`.

use std::io::{BufRead, Write};
use std::sync::mpsc;

use super::{ServeError, ServeHandle, ServeReply, ServeStats};
use crate::error::Error;
use zskip_json::Json;
use zskip_nn::eval::synthetic_inputs;
use zskip_tensor::{Shape, Tensor};

/// The input payload of an `infer` request.
#[derive(Debug, Clone, PartialEq)]
pub enum WireInput {
    /// Deterministic synthetic image: `synthetic_inputs(seed, 1, shape)`.
    /// The same seed fed to `zskip infer --seed` produces a bit-identical
    /// input, which is how the integration tests cross-check the daemon.
    Seed(u64),
    /// A raw image, flattened C-major to exactly `shape.len()` floats.
    Image(Vec<f32>),
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Run one inference and stream the result back.
    Infer {
        /// Client-chosen correlation id, echoed verbatim in the response.
        id: String,
        /// The image payload.
        input: WireInput,
    },
    /// Report aggregate server counters.
    Stats,
    /// Stop admission, drain queued requests, close the server.
    Shutdown,
}

/// A rejected request line: the failure plus the `id` to echo, when the
/// line was well-formed enough to carry one.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// The request id, if one could be extracted.
    pub id: Option<String>,
    /// Why the line was rejected.
    pub error: ServeError,
}

fn id_string(v: &Json) -> Option<String> {
    match v {
        Json::Str(s) => Some(s.clone()),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => Some(format!("{}", *n as i64)),
        Json::Num(n) => Some(format!("{n}")),
        _ => None,
    }
}

/// Parses one request line.
///
/// # Errors
/// [`ServeError::Protocol`] when the line is not JSON;
/// [`ServeError::BadRequest`] when it is JSON but not a valid request
/// (unknown `op`, missing/ill-typed field, both or neither of
/// `seed`/`image`).
pub fn parse_request(line: &str) -> Result<WireRequest, WireError> {
    let json = Json::parse(line)
        .map_err(|e| WireError { id: None, error: ServeError::Protocol { message: e.to_string() } })?;
    let id = json.get("id").and_then(id_string);
    let bad = |message: &str| WireError {
        id: id.clone(),
        error: ServeError::BadRequest { message: message.into() },
    };
    if !matches!(json, Json::Obj(_)) {
        return Err(bad("request must be a JSON object"));
    }
    let op = json.get("op").and_then(Json::as_str).ok_or_else(|| bad("missing string field 'op'"))?;
    match op {
        "infer" => {
            let id =
                id.clone().ok_or_else(|| bad("infer requires an 'id' (string or integer)"))?;
            let seed = json.get("seed");
            let image = json.get("image");
            let input = match (seed, image) {
                (Some(s), None) => WireInput::Seed(
                    s.as_u64().ok_or_else(|| bad("'seed' must be a non-negative integer"))?,
                ),
                (None, Some(img)) => {
                    let arr =
                        img.as_arr().ok_or_else(|| bad("'image' must be an array of numbers"))?;
                    let mut data = Vec::with_capacity(arr.len());
                    for v in arr {
                        data.push(
                            v.as_f64().ok_or_else(|| bad("'image' must be an array of numbers"))?
                                as f32,
                        );
                    }
                    WireInput::Image(data)
                }
                (Some(_), Some(_)) => return Err(bad("give either 'seed' or 'image', not both")),
                (None, None) => return Err(bad("infer requires 'seed' or 'image'")),
            };
            Ok(WireRequest::Infer { id, input })
        }
        "stats" => Ok(WireRequest::Stats),
        "shutdown" => Ok(WireRequest::Shutdown),
        other => Err(bad(&format!("unknown op '{other}'"))),
    }
}

/// Materializes a request payload into the network's input tensor.
///
/// # Errors
/// [`ServeError::BadRequest`] when a raw image's length does not match
/// the network input shape.
pub fn request_tensor(input: &WireInput, shape: Shape) -> Result<Tensor<f32>, ServeError> {
    match input {
        WireInput::Seed(seed) => Ok(synthetic_inputs(*seed, 1, shape).remove(0)),
        WireInput::Image(data) => {
            if data.len() != shape.len() {
                return Err(ServeError::BadRequest {
                    message: format!(
                        "image has {} values, network input {} needs {}",
                        data.len(),
                        shape,
                        shape.len()
                    ),
                });
            }
            Ok(Tensor::from_vec(shape.c, shape.h, shape.w, data.clone()))
        }
    }
}

/// Renders a completed request as one response line (no trailing newline).
pub fn render_reply(reply: &ServeReply) -> String {
    match &reply.result {
        Ok(report) => {
            let argmax = report
                .output
                .iter()
                .enumerate()
                .max_by_key(|(i, v)| (v.to_i32(), std::cmp::Reverse(*i)))
                .map_or(0, |(i, _)| i);
            Json::obj([
                ("id", Json::Str(reply.id.clone())),
                ("ok", Json::Bool(true)),
                ("argmax", Json::Num(argmax as f64)),
                (
                    "output",
                    Json::Arr(report.output.iter().map(|v| Json::Num(v.to_i32() as f64)).collect()),
                ),
                ("total_cycles", Json::Num(report.total_cycles as f64)),
                ("queue_us", Json::Num(reply.stats.queue_us as f64)),
                ("batch_us", Json::Num(reply.stats.batch_us as f64)),
                ("batch_size", Json::Num(reply.stats.batch_size as f64)),
            ])
            .to_string_compact()
        }
        Err(e) => render_error(Some(&reply.id), e),
    }
}

/// Renders a failure (rejection, fault, protocol error) as one response
/// line. `id` is `null` when the line never yielded one.
pub fn render_error(id: Option<&str>, err: &Error) -> String {
    Json::obj([
        ("id", id.map_or(Json::Null, |s| Json::Str(s.to_string()))),
        ("ok", Json::Bool(false)),
        ("code", Json::Str(err.code().to_string())),
        ("error", Json::Str(err.to_string())),
    ])
    .to_string_compact()
}

/// Renders the `stats` response line: the engine's aggregate counters
/// plus the process-wide stats memo's (`stats_memo`; a warm cpu request
/// adds one hit).
pub fn render_stats(stats: &ServeStats) -> String {
    let memo = crate::stats_memo_stats();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("op", Json::Str("stats".into())),
        ("served", Json::Num(stats.served as f64)),
        ("failed", Json::Num(stats.failed as f64)),
        ("rejected", Json::Num(stats.rejected as f64)),
        ("p50_us", Json::Num(stats.p50_us() as f64)),
        ("p99_us", Json::Num(stats.p99_us() as f64)),
        (
            "stats_memo",
            Json::obj([
                ("entries", Json::Num(memo.entries as f64)),
                ("hits", Json::Num(memo.hits as f64)),
                ("misses", Json::Num(memo.misses as f64)),
            ]),
        ),
    ])
    .to_string_compact()
}

/// Renders the immediate `shutdown` acknowledgement (sent before the
/// drain; the drain summary is the final [`render_stats`] line).
pub fn render_shutdown_ack() -> String {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("op", Json::Str("shutdown".into())),
        ("draining", Json::Bool(true)),
    ])
    .to_string_compact()
}

/// The longest request line the daemon buffers: room for a 224×224×3
/// image (150 528 values) spelt at up to ~27 bytes per value plus the
/// envelope. A fixed bound, so a newline-free stream cannot grow the
/// daemon.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Reads the next line (without its newline) into `line`. `Ok(None)` at
/// end of stream; `Ok(Some(false))` when the line exceeded
/// [`MAX_LINE_BYTES`] — it is then consumed up to its newline and dropped,
/// holding no more than the reader's own buffer at any time.
fn read_bounded_line<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> std::io::Result<Option<bool>> {
    line.clear();
    let mut fits = true;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // End of stream: an unterminated last line still counts.
            return Ok((!line.is_empty() || !fits).then_some(fits));
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let body = &chunk[..newline.unwrap_or(chunk.len())];
        if fits && line.len() + body.len() <= MAX_LINE_BYTES {
            line.extend_from_slice(body);
        } else {
            fits = false;
            line.clear();
        }
        let taken = newline.map_or(chunk.len(), |at| at + 1);
        reader.consume(taken);
        if newline.is_some() {
            return Ok(Some(fits));
        }
    }
}

/// What one connection did, for the caller's exit-code policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionSummary {
    /// Inference requests admitted to the engine.
    pub requests: u64,
    /// Lines rejected with `serve.protocol` or `serve.bad-request` —
    /// the CLI exits non-zero when this is non-zero.
    pub protocol_errors: u64,
    /// Requests bounced with `serve.overloaded` or `serve.shutdown`.
    pub rejected: u64,
    /// Whether this connection issued `{"op":"shutdown"}`.
    pub shutdown_requested: bool,
}

/// Runs one connection against the engine: reads request lines from
/// `reader` until EOF or a `shutdown` op, streams response lines to
/// `writer` in completion order, and returns what happened.
///
/// The reader runs on its own (scoped) thread so queued requests keep
/// completing — and their responses keep flushing — while the client
/// composes its next line. The call returns once every admitted
/// request's response has been written.
///
/// # Errors
/// The first `writer` I/O failure, after in-flight completions drain.
pub fn serve_connection<R: BufRead + Send, W: Write>(
    handle: &ServeHandle,
    input_shape: Shape,
    mut reader: R,
    writer: &mut W,
) -> std::io::Result<ConnectionSummary> {
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::scope(|scope| {
        let reader_thread = scope.spawn(move || {
            let mut summary = ConnectionSummary::default();
            let mut buf = Vec::new();
            // An I/O error or a line that is not UTF-8 ends the connection.
            while let Ok(Some(fits)) = read_bounded_line(&mut reader, &mut buf) {
                if !fits {
                    summary.protocol_errors += 1;
                    let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                    let _ = tx.send(render_error(None, &Error::Serve(ServeError::BadRequest { message })));
                    continue;
                }
                let Ok(line) = std::str::from_utf8(&buf) else { break };
                if line.trim().is_empty() {
                    continue;
                }
                match parse_request(line) {
                    Ok(WireRequest::Infer { id, input }) => {
                        let tensor = match request_tensor(&input, input_shape) {
                            Ok(t) => t,
                            Err(e) => {
                                summary.protocol_errors += 1;
                                let _ = tx.send(render_error(Some(&id), &Error::Serve(e)));
                                continue;
                            }
                        };
                        let reply_tx = tx.clone();
                        let submitted = handle.submit_with(
                            id.clone(),
                            tensor,
                            Box::new(move |reply| drop(reply_tx.send(render_reply(&reply)))),
                        );
                        match submitted {
                            Ok(()) => summary.requests += 1,
                            Err(e) => {
                                summary.rejected += 1;
                                let _ = tx.send(render_error(Some(&id), &e));
                            }
                        }
                    }
                    Ok(WireRequest::Stats) => {
                        let _ = tx.send(render_stats(&handle.stats()));
                    }
                    Ok(WireRequest::Shutdown) => {
                        summary.shutdown_requested = true;
                        let _ = tx.send(render_shutdown_ack());
                        handle.shutdown();
                        break;
                    }
                    Err(WireError { id, error }) => {
                        summary.protocol_errors += 1;
                        let _ = tx
                            .send(render_error(id.as_deref(), &Error::Serve(error)));
                    }
                }
            }
            summary
        });
        // Completion-order writer: drains until the reader and every
        // in-flight completion have dropped their senders. On a write
        // failure keep draining (sends never block) so the engine's
        // callbacks stay cheap, then surface the first error.
        let mut io_failure = None;
        for line in rx {
            if io_failure.is_none() {
                io_failure = writeln!(writer, "{line}").and_then(|()| writer.flush()).err();
            }
        }
        // A reader that panicked (a bug: every parser under it is held
        // never to) ends this connection with an error, not the daemon.
        let summary = reader_thread.join().map_err(|_| std::io::Error::other("connection reader panicked"));
        match io_failure {
            Some(e) => Err(e),
            None => summary,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::BackendKind;
    use crate::serve::{RequestStats, ServeEngine};
    use crate::session::Session;
    use std::sync::Arc;
    use zskip_hls::AccelArch;

    #[test]
    fn parses_the_request_grammar() {
        let r = parse_request(r#"{"op":"infer","id":"r1","seed":7}"#).unwrap();
        assert_eq!(r, WireRequest::Infer { id: "r1".into(), input: WireInput::Seed(7) });
        // Integer ids are accepted and echoed as their decimal string.
        let r = parse_request(r#"{"op":"infer","id":12,"image":[0.5,-1]}"#).unwrap();
        assert_eq!(
            r,
            WireRequest::Infer { id: "12".into(), input: WireInput::Image(vec![0.5, -1.0]) }
        );
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), WireRequest::Stats);
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#).unwrap(), WireRequest::Shutdown);
    }

    #[test]
    fn rejects_bad_lines_with_the_right_code() {
        // Not JSON at all: framing-level protocol error, no id.
        let e = parse_request("not json").unwrap_err();
        assert!(matches!(e.error, ServeError::Protocol { .. }));
        assert_eq!(e.id, None);
        assert_eq!(Error::Serve(e.error).code(), "serve.protocol");
        // Valid JSON, bad request: echoes the id it could extract.
        let e = parse_request(r#"{"op":"infer","id":"x"}"#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("x"));
        assert_eq!(Error::Serve(e.error.clone()).code(), "serve.bad-request");
        let e = parse_request(r#"{"op":"infer","id":"x","seed":1,"image":[1]}"#).unwrap_err();
        assert!(matches!(e.error, ServeError::BadRequest { .. }));
        let e = parse_request(r#"{"op":"warp"}"#).unwrap_err();
        assert!(matches!(e.error, ServeError::BadRequest { .. }));
        let e = parse_request(r#"[1,2]"#).unwrap_err();
        assert!(matches!(e.error, ServeError::BadRequest { .. }));
    }

    #[test]
    fn request_tensor_checks_the_image_length() {
        let shape = Shape::new(2, 3, 3);
        let t = request_tensor(&WireInput::Seed(5), shape).unwrap();
        assert_eq!(t.shape(), shape);
        assert_eq!(t, synthetic_inputs(5, 1, shape).remove(0), "seed inputs are deterministic");
        let e = request_tensor(&WireInput::Image(vec![0.0; 4]), shape).unwrap_err();
        assert!(matches!(e, ServeError::BadRequest { .. }));
        let ok = request_tensor(&WireInput::Image(vec![0.25; 18]), shape).unwrap();
        assert_eq!(ok.as_slice().len(), 18);
    }

    #[test]
    fn responses_are_single_line_parseable_json() {
        let err = render_error(None, &Error::Serve(ServeError::Overloaded { depth: 4 }));
        let json = Json::parse(&err).expect("valid JSON");
        assert_eq!(json.get("code").and_then(Json::as_str), Some("serve.overloaded"));
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(json.get("id"), Some(&Json::Null));
        assert!(!err.contains('\n'));

        let stats = render_stats(&ServeStats::default());
        let json = Json::parse(&stats).expect("valid JSON");
        assert_eq!(json.get("served").and_then(Json::as_u64), Some(0));
        let memo = json.get("stats_memo").expect("memo counters");
        for field in ["entries", "hits", "misses"] {
            assert!(memo.get(field).and_then(Json::as_u64).is_some(), "stats_memo.{field}");
        }

        let ack = Json::parse(&render_shutdown_ack()).expect("valid JSON");
        assert_eq!(ack.get("draining").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn serve_connection_round_trips_over_byte_streams() {
        let qnet = Arc::new(crate::session::tests::tiny_qnet(8));
        let config = crate::config::AccelConfig::from_arch(
            &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 },
            100.0,
        );
        let session = Session::builder(config).backend(BackendKind::Model).build().unwrap();
        let want = session
            .driver()
            .run_network(&qnet, &synthetic_inputs(3, 1, qnet.spec.input)[0])
            .expect("runs");
        let engine = ServeEngine::start(session, Arc::clone(&qnet));
        let input = r#"{"op":"infer","id":"a","seed":3}
garbage line
{"op":"stats"}
{"op":"shutdown"}
"#;
        let mut out = Vec::new();
        let summary = serve_connection(
            &engine.handle(),
            qnet.spec.input,
            input.as_bytes(),
            &mut out,
        )
        .expect("io ok");
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.protocol_errors, 1);
        assert!(summary.shutdown_requested);
        let stats = engine.join();
        assert_eq!(stats.served, 1);
        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).expect("every response line is JSON"))
            .collect();
        assert_eq!(lines.len(), 4, "reply + protocol error + stats + shutdown ack");
        let reply = lines
            .iter()
            .find(|j| j.get("id").and_then(Json::as_str) == Some("a"))
            .expect("the inference reply");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        let output: Vec<i32> = reply
            .get("output")
            .and_then(Json::as_arr)
            .expect("output array")
            .iter()
            .map(|v| v.as_f64().unwrap() as i32)
            .collect();
        let direct: Vec<i32> = want.output.iter().map(|v| v.to_i32()).collect();
        assert_eq!(output, direct, "served output is bit-identical to direct inference");
        assert!(lines.iter().any(|j| j.get("code").and_then(Json::as_str) == Some("serve.protocol")));
    }

    #[test]
    fn an_over_long_line_is_skipped_not_buffered_and_the_connection_keeps_serving() {
        let qnet = Arc::new(crate::session::tests::tiny_qnet(8));
        let config = crate::config::AccelConfig::from_arch(
            &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 },
            100.0,
        );
        let session = Session::builder(config).build().unwrap();
        let engine = ServeEngine::start(session, Arc::clone(&qnet));
        // Twice the cap without a newline, then a well-formed request
        // (CRLF-terminated, as a telnet-style client would send it).
        let mut input = vec![b'x'; 2 * MAX_LINE_BYTES];
        input.extend_from_slice(b"\n{\"op\":\"infer\",\"id\":\"after\",\"seed\":3}\r\n{\"op\":\"shutdown\"}\n");
        // A small reader buffer: the long line arrives in many chunks.
        let reader = std::io::BufReader::with_capacity(4096, input.as_slice());
        let mut out = Vec::new();
        let summary = serve_connection(&engine.handle(), qnet.spec.input, reader, &mut out).expect("io ok");
        assert_eq!((summary.requests, summary.protocol_errors), (1, 1));
        assert_eq!(engine.join().served, 1);
        let lines: Vec<Json> =
            String::from_utf8(out).unwrap().lines().map(|l| Json::parse(l).expect("JSON")).collect();
        let codes: Vec<_> = lines.iter().filter_map(|j| j.get("code").and_then(Json::as_str)).collect();
        assert_eq!(codes, ["serve.bad-request"], "one rejection, naming the cap");
        let rejection = lines.iter().find(|j| j.get("code").is_some()).expect("present");
        assert_eq!(rejection.get("id"), Some(&Json::Null));
        assert!(rejection.get("error").and_then(Json::as_str).is_some_and(|e| e.contains("4194304 bytes")));
        let reply = lines.iter().find(|j| j.get("id").and_then(Json::as_str) == Some("after"));
        assert_eq!(reply.and_then(|j| j.get("ok")).and_then(Json::as_bool), Some(true), "the next request is served");
    }

    #[test]
    fn render_reply_reports_argmax_and_stats() {
        use crate::driver::InferenceReport;
        use zskip_quant::Sm8;
        let report = InferenceReport {
            layers: vec![],
            output: vec![
                Sm8::from_i32_saturating(-3),
                Sm8::from_i32_saturating(9),
                Sm8::from_i32_saturating(9),
            ],
            total_cycles: 1234,
            ddr_bytes: 0,
        };
        let reply = ServeReply {
            id: "z".into(),
            result: Ok(report),
            stats: RequestStats { queue_us: 10, batch_us: 20, batch_size: 2 },
        };
        let json = Json::parse(&render_reply(&reply)).expect("valid JSON");
        // Ties break to the first index, like a host-side argmax loop.
        assert_eq!(json.get("argmax").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("queue_us").and_then(Json::as_u64), Some(10));
        assert_eq!(json.get("batch_us").and_then(Json::as_u64), Some(20));
        assert_eq!(json.get("batch_size").and_then(Json::as_u64), Some(2));
        assert_eq!(json.get("total_cycles").and_then(Json::as_u64), Some(1234));
    }
}
