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
use zskip_json::{Cursor, Json};
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

/// An integer id is echoed as its decimal string, any other number as
/// `f64` `Display` prints it.
fn number_id(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn id_string(v: &Json) -> Option<String> {
    match v {
        Json::Str(s) => Some(s.clone()),
        Json::Num(n) => Some(number_id(*n)),
        _ => None,
    }
}

/// Parses one request line.
///
/// An accepted line builds no [`Json`] tree: one streaming pass over the
/// request object reads `op`, `id` and `seed` and decodes `image`
/// straight into the `f32`s of its [`WireInput::Image`]. A line that pass
/// does not accept is read again into a tree, which names the rejection.
///
/// # Errors
/// [`ServeError::Protocol`] when the line is not JSON;
/// [`ServeError::BadRequest`] when it is JSON but not a valid request
/// (unknown `op`, missing/ill-typed field, both or neither of
/// `seed`/`image`).
pub fn parse_request(line: &str) -> Result<WireRequest, WireError> {
    match read_request(line) {
        Some(request) => Ok(request),
        None => tree_request(line),
    }
}

/// The streaming reader: the request `line` encodes, or `None` when
/// [`tree_request`] rejects it. Duplicate keys keep their last occurrence,
/// as in [`Json::parse`]; a known field's value of the wrong type is
/// walked as any JSON value and remembered as unusable.
fn read_request(line: &str) -> Option<WireRequest> {
    let mut cursor = Cursor::new(line);
    cursor.skip_ws();
    if cursor.peek() != Some(b'{') {
        return None;
    }
    let mut id = None;
    let mut op = None;
    // Outer `Some`: the key is present; inner `None`: its value is unusable.
    let mut seed: Option<Option<u64>> = None;
    let mut image: Option<Option<Vec<f32>>> = None;
    cursor
        .object(|c, key| {
            match &*key {
                "id" => {
                    id = match c.peek() {
                        Some(b'"') => Some(c.string()?.into_owned()),
                        Some(b'-' | b'0'..=b'9') => Some(number_id(c.number()?)),
                        _ => c.value().map(|_| None)?,
                    }
                }
                "op" if c.peek() == Some(b'"') => op = Some(c.string()?),
                "op" => op = c.value().map(|_| None)?,
                "seed" if matches!(c.peek(), Some(b'-' | b'0'..=b'9')) => {
                    seed = Some(Json::Num(c.number()?).as_u64());
                }
                "seed" => seed = c.value().map(|_| Some(None))?,
                "image" => image = Some(read_image(c)?),
                _ => drop(c.value()?),
            }
            Ok(())
        })
        .ok()?;
    cursor.end().ok()?;
    match &*op? {
        "infer" => {
            let input = match (seed, image) {
                (Some(seed), None) => WireInput::Seed(seed?),
                (None, Some(image)) => WireInput::Image(image?),
                _ => return None,
            };
            Some(WireRequest::Infer { id: id?, input })
        }
        "stats" => Some(WireRequest::Stats),
        "shutdown" => Some(WireRequest::Shutdown),
        _ => None,
    }
}

/// Decodes an `image` value: its numbers rounded to `f32` (through
/// `f64`, as a tree's `Json::Num` would be), into a vector sized once by
/// counting the array's commas; `None` when the value is not an array of
/// numbers.
fn read_image(c: &mut Cursor) -> Result<Option<Vec<f32>>, zskip_json::ParseError> {
    if c.peek() != Some(b'[') {
        return c.value().map(|_| None);
    }
    let mut data = Vec::with_capacity(array_len(c.rest()));
    let numbers = c.numbers(|v| data.push(v as f32))?;
    Ok(numbers.then_some(data))
}

/// How many elements the array at the start of `text` holds, if it is a
/// non-empty array of numbers: such an array has no `]` before its own,
/// and its separators are the commas up to the first one. Counted 64
/// bytes at a time with no early exit, which the compiler vectorizes: on
/// a 3 072-value line that took ≈ 2 µs, a byte-at-a-time search ≈ 30 µs.
fn array_len(text: &[u8]) -> usize {
    // A byte counter: a block's count fits it, and byte lanes vectorize.
    let count = |bytes: &[u8], b: u8| usize::from(bytes.iter().fold(0u8, |n, &x| n + u8::from(x == b)));
    let mut commas = 0;
    for block in text[1..].chunks(64) {
        if block.iter().fold(false, |seen, &b| seen | (b == b']')) {
            let end = block.iter().position(|&b| b == b']').unwrap_or(block.len());
            return commas + count(&block[..end], b',') + 1;
        }
        commas += count(block, b',');
    }
    commas + 1
}

/// The tree reading of a request: the whole line into a [`Json`] value,
/// then the fields out of it. The daemon runs it only on lines
/// [`read_request`] refused, to name the rejection; the tests hold the
/// streaming reader to it on every line.
fn tree_request(line: &str) -> Result<WireRequest, WireError> {
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
    input_tensor(input.clone(), shape)
}

/// [`request_tensor`] on an owned payload: a raw image's values move
/// into the tensor.
fn input_tensor(input: WireInput, shape: Shape) -> Result<Tensor<f32>, ServeError> {
    match input {
        WireInput::Seed(seed) => Ok(synthetic_inputs(seed, 1, shape).remove(0)),
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
            Ok(Tensor::from_vec(shape.c, shape.h, shape.w, data))
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

/// Renders the `stats` response line: the engine's aggregate counters.
pub fn render_stats(stats: &ServeStats) -> String {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("op", Json::Str("stats".into())),
        ("served", Json::Num(stats.served as f64)),
        ("failed", Json::Num(stats.failed as f64)),
        ("rejected", Json::Num(stats.rejected as f64)),
        ("p50_us", Json::Num(stats.p50_us() as f64)),
        ("p99_us", Json::Num(stats.p99_us() as f64)),
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
                        let tensor = match input_tensor(input, input_shape) {
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
        // in-flight completion have dropped their senders. Every reply
        // already queued goes out in one write. On a write failure keep
        // draining (sends never block) so the engine's callbacks stay
        // cheap, then surface the first error.
        let mut io_failure = None;
        let mut batch = Vec::new();
        while let Ok(first) = rx.recv() {
            batch.clear();
            for line in std::iter::once(first).chain(rx.try_iter()) {
                batch.extend_from_slice(line.as_bytes());
                batch.push(b'\n');
            }
            if io_failure.is_none() {
                io_failure = writer.write_all(&batch).and_then(|()| writer.flush()).err();
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

    /// A parse result with every `f32` by its bits (`Debug` prints `-0.0`
    /// and `0.0` apart, where `PartialEq` calls them equal) and every
    /// error by its code and message.
    fn verdict(r: &Result<WireRequest, WireError>) -> String {
        match r {
            Ok(request) => format!("{request:?}"),
            Err(WireError { id, error }) => {
                let e = Error::Serve(error.clone());
                format!("{id:?} {} {e}", e.code())
            }
        }
    }

    /// `parse_request` against the tree oracle on one line: the same
    /// verdict, and the streaming reader accepts exactly what the tree
    /// accepts (so an accepted line never builds a tree).
    fn agrees_with_the_tree(line: &str) {
        let tree = tree_request(line);
        assert_eq!(verdict(&parse_request(line)), verdict(&tree), "{line:?}");
        assert_eq!(read_request(line).is_some(), tree.is_ok(), "{line:?}");
    }

    /// `tests/robustness.rs`'s hostile alphabet, plus the numbers, ids
    /// and escaped keys a client may legitimately spell.
    const TOKENS: [&str; 38] = [
        "{", "}", "[", "]", ":", ",", "\"op\"", "\"infer\"", "\"stats\"", "\"shutdown\"", "\"id\"",
        "\"seed\"", "\"image\"", "0", "-", "1e999", "18446744073709551616", "0.5", "null", "true", "\"",
        "\\u", "\\ud800", " ", "-0", "5e-1", "0.50000000000000000001", "4.9e-324", "1E+2", "\"r1\"",
        "\"\\u0069d\"", "\"im\\u0061ge\"", "12", "\t", "123456789012345678901234", ".", "e", "5",
    ];

    const KEYS: [&str; 8] =
        ["op", "id", "image", "seed", "\\u0069d", "im\\u0061ge", "x", "\\u006fp"];

    const VALUES: [&str; 30] = [
        "\"infer\"", "\"stats\"", "\"shutdown\"", "\"warp\"", "\"r1\"", "\"r\\\"2\"", "12", "-0", "1.5",
        "1e3", "9007199254740993", "[0.5,-0.25,1e-3]", "[]", "[ ]", "[ 0.5 ,\t-1,2 ]", "[1,-,2]", "[-0,5e-1,0.50000000000000000001]",
        "[1e999,-1e999]", "[4.9e-324,1e-310,1.17549435e-38]", "[12345678901234567890123,0.1234567890123456789]",
        "[1,\"x\"]", "[true]", "[[1]]", "[1,]", "null", "{}", "{\"image\":[1]}", "7", "18446744073709551616",
        "\"\"",
    ];

    const SPACE: [&str; 4] = ["", " ", "\t", " \r\n "];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2048))]

        /// Harness-shaped lines, mutated — keys in any order, repeated,
        /// escaped or unknown, values of every type and spelling, spaced
        /// out, cut short — and token soup: the streaming reader decides
        /// what the tree decides.
        #[test]
        fn parse_request_matches_the_tree_oracle(
            fields in proptest::collection::vec((0usize..KEYS.len(), 0usize..VALUES.len(), 0usize..SPACE.len()), 0..7),
            cut in 0usize..160,
            truncate in proptest::bool::ANY,
            soup in proptest::collection::vec(0usize..TOKENS.len(), 0..40),
        ) {
            let members: Vec<String> = fields
                .iter()
                .map(|&(k, v, w)| format!("{w}\"{}\"{w}:{w}{}{w}", KEYS[k], VALUES[v], w = SPACE[w]))
                .collect();
            let mut line = format!("{{{}}}", members.join(","));
            if truncate {
                line.truncate(cut.min(line.len()));
            }
            agrees_with_the_tree(&line);
            agrees_with_the_tree(&soup.iter().map(|&t| TOKENS[t]).collect::<String>());
        }
    }

    #[test]
    fn parse_request_matches_the_tree_on_harness_lines() {
        let shape = Shape::new(3, 32, 32);
        for seed in 0..4 {
            let image = &synthetic_inputs(seed, 1, shape)[0];
            let values: Vec<String> = image.as_slice().iter().map(f32::to_string).collect();
            let line = format!("{{\"op\":\"infer\",\"id\":\"r{seed}\",\"image\":[{}]}}", values.join(","));
            agrees_with_the_tree(&line);
            let Ok(WireRequest::Infer { input: WireInput::Image(data), .. }) = parse_request(&line) else {
                panic!("the harness's line is an infer request");
            };
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&data), bits(image.as_slice()), "f32 Display round-trips through the reader");
        }
    }

    /// Every `k/256`, `k` in −256..256, spelt as `f32::to_string` spells
    /// it (the harness client's spelling): the image holds the bits of
    /// `str::parse::<f64>() as f32`.
    #[test]
    fn every_k_over_256_reads_to_the_bits_of_f64_parse_then_f32() {
        let spelt: Vec<String> = (-256..256).map(|k| (k as f32 / 256.0).to_string()).collect();
        let line = format!("{{\"op\":\"infer\",\"id\":1,\"image\":[{}]}}", spelt.join(","));
        let Ok(WireRequest::Infer { input: WireInput::Image(data), .. }) = parse_request(&line) else {
            panic!("an infer request");
        };
        assert_eq!(data.len(), spelt.len());
        for (text, got) in spelt.iter().zip(&data) {
            let want = text.parse::<f64>().expect("a float") as f32;
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
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
        let Json::Obj(fields) = &json else { panic!("an object: {stats}") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["ok", "op", "served", "failed", "rejected", "p50_us", "p99_us"], "counters only");

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
        let want = session.infer(&qnet, &synthetic_inputs(3, 1, qnet.spec.input)[0]).expect("runs");
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

    /// Opened once the connection's reader has read its whole input.
    type Gate = Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>;

    /// A request stream that opens its gate at end of input: by then the
    /// reader has queued the reply of every line it read.
    struct GateAtEnd<'a> {
        bytes: &'a [u8],
        gate: Gate,
    }

    impl std::io::Read for GateAtEnd<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = std::io::Read::read(&mut self.fill_buf()?, buf)?;
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for GateAtEnd<'_> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.bytes.is_empty() {
                *self.gate.0.lock().unwrap() = true;
                self.gate.1.notify_all();
            }
            Ok(self.bytes)
        }
        fn consume(&mut self, n: usize) {
            self.bytes = &self.bytes[n..];
        }
    }

    /// Records every `write` call. The first one waits for the gate, so
    /// every later reply is queued before the writer looks again.
    struct RecordingWriter {
        writes: Vec<Vec<u8>>,
        gate: Gate,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.writes.is_empty() {
                let (open, opened) = &*self.gate;
                let wait = opened.wait_timeout_while(open.lock().unwrap(), std::time::Duration::from_secs(30), |o| !*o);
                assert!(*wait.unwrap().0, "the reader reached the end of its input");
            }
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn replies_queued_together_leave_in_one_write_of_whole_lines() {
        const LINES: usize = 8;
        let qnet = Arc::new(crate::session::tests::tiny_qnet(8));
        let config = crate::config::AccelConfig::from_arch(
            &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 },
            100.0,
        );
        let engine = ServeEngine::start(Session::builder(config).build().unwrap(), Arc::clone(&qnet));
        let input = "{\"op\":\"stats\"}\nnot json\n".repeat(LINES / 2);
        let gate = Gate::default();
        let reader = GateAtEnd { bytes: input.as_bytes(), gate: Arc::clone(&gate) };
        let mut writer = RecordingWriter { writes: Vec::new(), gate };
        let summary = serve_connection(&engine.handle(), qnet.spec.input, reader, &mut writer).expect("io ok");
        assert_eq!(summary.protocol_errors, LINES as u64 / 2);
        engine.join();
        let writes = writer.writes;
        assert!(writes.iter().all(|w| w.ends_with(b"\n")), "every write ends on a line boundary");
        let lines: Vec<Json> = writes
            .iter()
            .flat_map(|w| std::str::from_utf8(w).unwrap().lines())
            .map(|l| Json::parse(l).expect("a whole reply per line"))
            .collect();
        assert_eq!(lines.len(), LINES, "one reply per request line");
        assert!(writes.len() < LINES, "{LINES} replies queued together took {} writes", writes.len());
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
