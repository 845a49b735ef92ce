//! `resnet18_serve`: the `zskip serve` daemon on the ResNet-18 DAG spec,
//! driven over one TCP connection by one load-generating thread: an open
//! loop at a fixed rate (each request timed from when it was *due*), then
//! a closed loop with a fixed number outstanding (throughput at
//! saturation). Every reply is checked against an in-process golden.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use zskip::accel::BackendKind;
use zskip::json::Json;
use zskip::nn::model::QuantizedNetwork;
use zskip::nn::NetworkSpec;
use zskip::tensor::Tensor;

use crate::calib::HostSpeed;
use crate::child::{proc_status_kib, Spawned, SERVE_TIMEOUT};
use crate::contract::{workload, Layers, Outcome, RESNET18_SERVE};
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::{net, probes, Opts, SETUP_REPS};

/// Fixed arrival rate of the open-loop phase, requests per second.
pub const RATE_HZ: f64 = 12.0;
/// Requests kept outstanding in the closed-loop phase.
pub const OUTSTANDING: usize = 8;
/// Share of `--seconds` the open-loop phase takes; the closed loop gets
/// the rest.
const RATE_SHARE: f64 = 0.5;
/// A request unanswered this long after the last send counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// The open-loop generator running later than this is called out in the
/// report: the phase's latencies then include client-side delay.
const LATE_LIMIT_MS: f64 = 5.0;

/// Open-loop arrival schedule: request `k` is due at `start + k/rate`,
/// whether or not earlier requests have been answered.
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
    planned: usize,
    sent: usize,
}

impl OpenLoop {
    pub fn new(start: Instant, rate_hz: f64, duration: Duration) -> OpenLoop {
        let planned = (duration.as_secs_f64() * rate_hz).floor().max(1.0) as usize;
        OpenLoop {
            start,
            interval: Duration::from_secs_f64(1.0 / rate_hz),
            planned,
            sent: 0,
        }
    }

    /// When the next request is due; `None` once all are sent.
    pub fn next_due(&self) -> Option<Instant> {
        (self.sent < self.planned).then(|| self.start + self.interval * self.sent as u32)
    }

    /// Marks the next request as sent at `now`. Returns its due time (the
    /// instant its latency is counted from) and how late the generator
    /// sent it.
    ///
    /// # Panics
    /// When nothing is left to send.
    pub fn mark_sent(&mut self, now: Instant) -> (Instant, Duration) {
        let due = self
            .next_due()
            .expect("mark_sent past the end of the schedule");
        self.sent += 1;
        (due, now.saturating_duration_since(due))
    }
}

/// What the daemon must answer for one of the workload's images.
pub struct Golden {
    pub output: Vec<i32>,
    pub total_cycles: u64,
}

/// The server-side fields of an `ok:true` reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplyStats {
    pub total_cycles: u64,
    pub queue_us: f64,
    pub batch_us: f64,
    pub batch_size: f64,
}

/// Parses one reply line into its request id and verdict: `Ok` only for
/// an `ok:true` reply whose `output` and `total_cycles` equal the golden
/// of the image `image_of(id)` names.
pub fn check_reply(
    line: &str,
    image_of: impl Fn(u64) -> Option<usize>,
    goldens: &[Golden],
) -> (Option<u64>, Result<ReplyStats, String>) {
    let doc = match Json::parse(line) {
        Ok(d) => d,
        Err(e) => return (None, Err(format!("reply is not JSON: {e}"))),
    };
    let id = doc
        .get("id")
        .and_then(Json::as_str)
        .and_then(|s| s.strip_prefix('r'))
        .and_then(|s| s.parse().ok());
    let verdict = (|| {
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            let code = doc.get("code").and_then(Json::as_str).unwrap_or("?");
            return Err(format!("ok:false ({code})"));
        }
        let golden = id
            .and_then(&image_of)
            .and_then(|i| goldens.get(i))
            .ok_or("reply id names no request sent")?;
        let output: Option<Vec<i32>> = doc.get("output").and_then(Json::as_arr).map(|a| {
            a.iter()
                .map(|v| v.as_f64().map_or(i32::MIN, |f| f as i32))
                .collect()
        });
        if output.as_deref() != Some(&golden.output[..]) {
            return Err("output differs from the in-process golden".to_string());
        }
        let num = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("reply lacks '{k}'"))
        };
        let stats = ReplyStats {
            total_cycles: num("total_cycles")? as u64,
            queue_us: num("queue_us")?,
            batch_us: num("batch_us")?,
            batch_size: num("batch_size")?,
        };
        if stats.total_cycles != golden.total_cycles {
            return Err(format!(
                "total_cycles {} differs from the golden's {}",
                stats.total_cycles, golden.total_cycles
            ));
        }
        Ok(stats)
    })();
    (id, verdict)
}

/// One request as the generator sent it.
pub struct Sent {
    pub id: u64,
    /// Which of the workload's images it carried.
    pub image: usize,
    /// Latency is counted from here: the due time in the open loop, the
    /// send time in the closed loop.
    pub due: Instant,
}

/// One request after its reply (or its absence) was judged.
pub struct Judged {
    pub id: u64,
    pub due: Instant,
    /// Due time to reply fully received; `None` when no reply came.
    pub latency_ms: Option<f64>,
    pub verdict: Result<ReplyStats, String>,
}

/// Matches the replies of one phase to the requests sent; a request
/// without a reply fails as a timeout.
pub fn judge(sent: &[Sent], received: &[(Instant, String)], goldens: &[Golden]) -> Vec<Judged> {
    let image_of = |id: u64| sent.iter().find(|s| s.id == id).map(|s| s.image);
    let mut judged: Vec<Judged> = sent
        .iter()
        .map(|s| Judged {
            id: s.id,
            due: s.due,
            latency_ms: None,
            verdict: Err("no reply (timeout)".into()),
        })
        .collect();
    for (at, line) in received {
        let (id, verdict) = check_reply(line, image_of, goldens);
        match id.and_then(|id| judged.iter_mut().find(|j| j.id == id)) {
            Some(j) => {
                j.latency_ms = Some(at.saturating_duration_since(j.due).as_secs_f64() * 1e3);
                j.verdict = verdict;
            }
            None => eprintln!(
                "resnet18_serve: unmatched reply: {}",
                &line[..line.len().min(120)]
            ),
        }
    }
    judged
}

/// The client side of the connection: blocking line writes, reads with a
/// timeout so the single generator thread can keep to its schedule.
struct Conn {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        Ok(Conn {
            stream,
            pending: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        // `poll` may have left the socket non-blocking; a 30 kB line must
        // not fail with WouldBlock half-written.
        self.stream
            .set_nonblocking(false)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))
    }

    /// Waits up to `timeout` for bytes and appends every completed line,
    /// stamped with the instant its last byte was read, to `out`.
    ///
    /// A socket read timeout overshoots by up to a scheduler tick (4 ms
    /// here), which would make the open-loop generator late. So the
    /// blocking read covers all but the last [`FINE_WINDOW`] of the wait
    /// (it still returns the moment data arrives), and the remainder is
    /// non-blocking reads 200 µs apart.
    fn poll(&mut self, timeout: Duration, out: &mut Vec<(Instant, String)>) -> Result<(), String> {
        const FINE_WINDOW: Duration = Duration::from_millis(6);
        let deadline = Instant::now() + timeout;
        if timeout > FINE_WINDOW {
            self.stream
                .set_nonblocking(false)
                .map_err(|e| format!("set_nonblocking: {e}"))?;
            self.stream
                .set_read_timeout(Some(timeout - FINE_WINDOW))
                .map_err(|e| format!("set_read_timeout: {e}"))?;
            if self.read_lines(out)? {
                return Ok(());
            }
        }
        self.stream
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        while !self.read_lines(out)? && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// One read: `true` when bytes arrived (complete lines go to `out`),
    /// `false` when the read timed out or would block.
    fn read_lines(&mut self, out: &mut Vec<(Instant, String)>) -> Result<bool, String> {
        let mut chunk = [0u8; 16384];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(n) => {
                let at = Instant::now();
                self.pending.extend_from_slice(&chunk[..n]);
                while let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = self.pending.drain(..=nl).collect();
                    out.push((at, String::from_utf8_lossy(&line[..nl]).into_owned()));
                }
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }
}

/// The request lines of the workload's images, rendered once: a request
/// is `head + id + tail[image]`.
struct RequestLines {
    tails: Vec<String>,
    next_id: u64,
}

impl RequestLines {
    fn new(images: &[Tensor<f32>]) -> RequestLines {
        let tails = images
            .iter()
            .map(|img| {
                let values: Vec<String> = img.as_slice().iter().map(|v| v.to_string()).collect();
                format!("\",\"image\":[{}]}}\n", values.join(","))
            })
            .collect();
        RequestLines { tails, next_id: 0 }
    }

    /// The next request: its id, its image index, its line.
    fn next(&mut self) -> (u64, usize, String) {
        let id = self.next_id;
        self.next_id += 1;
        let image = id as usize % self.tails.len();
        (
            id,
            image,
            format!("{{\"op\":\"infer\",\"id\":\"r{id}{}", self.tails[image]),
        )
    }
}

/// What one load phase sent and received.
struct Phase {
    sent: Vec<Sent>,
    received: Vec<(Instant, String)>,
    start: Instant,
    /// How late the generator sent each request (open loop only).
    late_ms: Vec<f64>,
}

impl Phase {
    /// Waits for the replies still outstanding, up to [`REPLY_TIMEOUT`].
    fn drain(&mut self, conn: &mut Conn) -> Result<(), String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while self.received.len() < self.sent.len() && Instant::now() < deadline {
            conn.poll(Duration::from_millis(50), &mut self.received)?;
        }
        Ok(())
    }
}

/// Open loop: sends on the schedule regardless of replies.
fn open_loop(
    conn: &mut Conn,
    lines: &mut RequestLines,
    rate_hz: f64,
    duration: Duration,
) -> Result<Phase, String> {
    let start = Instant::now();
    let mut schedule = OpenLoop::new(start, rate_hz, duration);
    let mut phase = Phase {
        sent: Vec::new(),
        received: Vec::new(),
        start,
        late_ms: Vec::new(),
    };
    while let Some(due) = schedule.next_due() {
        let now = Instant::now();
        if now >= due {
            let (id, image, line) = lines.next();
            let (due, late) = schedule.mark_sent(Instant::now());
            conn.send(&line)?;
            phase.late_ms.push(late.as_secs_f64() * 1e3);
            phase.sent.push(Sent { id, image, due });
        } else {
            conn.poll(due - now, &mut phase.received)?;
        }
    }
    phase.drain(conn)?;
    Ok(phase)
}

/// Closed loop: keeps `outstanding` requests in flight for `duration`
/// (or sends exactly `count` when given), each new one sent only when a
/// reply arrives.
fn closed_loop(
    conn: &mut Conn,
    lines: &mut RequestLines,
    outstanding: usize,
    duration: Duration,
    count: Option<usize>,
) -> Result<Phase, String> {
    let start = Instant::now();
    let mut phase = Phase {
        sent: Vec::new(),
        received: Vec::new(),
        start,
        late_ms: Vec::new(),
    };
    let more = |phase: &Phase| match count {
        Some(n) => phase.sent.len() < n,
        None => start.elapsed() < duration,
    };
    let stall = Instant::now() + REPLY_TIMEOUT + duration;
    while more(&phase) && Instant::now() < stall {
        if phase.sent.len() - phase.received.len() < outstanding {
            let (id, image, line) = lines.next();
            let due = Instant::now();
            conn.send(&line)?;
            phase.sent.push(Sent { id, image, due });
        } else {
            conn.poll(Duration::from_millis(50), &mut phase.received)?;
        }
    }
    phase.drain(conn)?;
    Ok(phase)
}

/// A running daemon and how long it took from spawn to `listening`.
struct Daemon {
    proc: Spawned,
    addr: String,
    listening_s: f64,
}

impl Daemon {
    fn start(cli: &Path) -> Result<Daemon, String> {
        let args = [
            "serve",
            "--network",
            net::RESNET18_SPEC,
            "--hw",
            "32",
            "--backend",
            "cpu",
            "--tcp",
            "127.0.0.1:0",
        ];
        let mut proc = Spawned::spawn(cli, &args, "serve", SERVE_TIMEOUT)?;
        let addr = proc
            .wait_for_line(Duration::from_secs(30), |line| {
                let doc = Json::parse(line).ok()?;
                let listening = doc.get("op")?.as_str()? == "listening";
                doc.get("addr")?
                    .as_str()
                    .filter(|_| listening)
                    .map(str::to_string)
            })
            .map_err(|e| {
                format!(
                    "zskip serve {e}\n--- stderr of zskip serve ---\n{}",
                    proc.stderr()
                )
            })?;
        let listening_s = proc.started().elapsed().as_secs_f64();
        Ok(Daemon {
            proc,
            addr,
            listening_s,
        })
    }

    /// Shuts the daemon down with the `shutdown` op; it must exit 0.
    fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        conn.send("{\"op\":\"shutdown\"}\n")?;
        let (status, _) = self
            .proc
            .wait(|_| {})
            .map_err(|e| format!("zskip serve: {e}\n{}", self.proc.stderr()))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!(
                "zskip serve exited {status} after shutdown\n--- stderr ---\n{}",
                self.proc.stderr()
            ))
        }
    }
}

/// Sends a `stats` op and returns the reply with its round trip in µs.
fn stats_op(conn: &mut Conn) -> Result<(Json, f64), String> {
    let t = Instant::now();
    conn.send("{\"op\":\"stats\"}\n")?;
    let mut lines = Vec::new();
    let deadline = t + REPLY_TIMEOUT;
    while lines.is_empty() && Instant::now() < deadline {
        conn.poll(Duration::from_millis(50), &mut lines)?;
    }
    let (at, line) = lines.first().ok_or("no reply to the stats op")?;
    let doc = Json::parse(line).map_err(|e| format!("stats reply is not JSON: {e}"))?;
    Ok((doc, at.duration_since(t).as_secs_f64() * 1e6))
}

fn ok_latencies(judged: &[Judged]) -> Vec<f64> {
    judged
        .iter()
        .filter(|j| j.verdict.is_ok())
        .filter_map(|j| j.latency_ms)
        .collect()
}

fn ok_stats(judged: &[Judged]) -> Vec<ReplyStats> {
    judged
        .iter()
        .filter_map(|j| j.verdict.as_ref().ok().copied())
        .collect()
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Records one judged request as a span from its due time to its reply,
/// with the queue wait and batch wall time the daemon reported as child
/// spans ending at the reply; what is left as self time is wire + client.
fn record_request(rec: &mut Recorder, phase: &str, j: &Judged) {
    let (Some(latency_ms), Ok(stats)) = (j.latency_ms, &j.verdict) else {
        return;
    };
    let start = rec.at(j.due);
    let end = start + latency_ms * 1e3;
    let id = rec.add("client.request", phase, start, end, None, Some(j.id));
    let batch_start = (end - stats.batch_us).max(start);
    let queue_start = (batch_start - stats.queue_us).max(start);
    rec.add(
        "core.serve.queue_wait",
        phase,
        queue_start,
        batch_start,
        Some(id),
        Some(j.id),
    );
    let batch = rec.add(
        "core.serve.batch_wall",
        phase,
        batch_start,
        end,
        Some(id),
        Some(j.id),
    );
    rec.span_mut(batch).args = vec![("batch_size".into(), stats.batch_size)];
}

pub fn run(cli: &Path, opts: &Opts) -> Result<Outcome, String> {
    let mut rec = Recorder::default();
    let mut layers = Layers::default();

    // In-process golden: the daemon's recipe (src/main.rs::build_network).
    let spec_text = net::read_resnet18_spec()?;
    let (qnet, session): (QuantizedNetwork, _) = if opts.trace {
        probes::traced_setup(&mut rec, &mut layers, Some(&spec_text), BackendKind::Cpu)?
    } else {
        let spec = NetworkSpec::from_json(&spec_text)
            .map_err(|e| format!("{}: {e}", net::RESNET18_SPEC))?;
        (net::build_network(&spec), net::session(BackendKind::Cpu)?)
    };
    let images = net::images(opts.seed, net::IMAGES, qnet.spec.input);
    let reports = images
        .iter()
        .map(|img| {
            session
                .infer(&qnet, img)
                .map_err(|e| format!("golden inference failed: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let goldens: Vec<Golden> = reports
        .iter()
        .map(|r| Golden {
            output: r.output.iter().map(|v| v.to_i32()).collect(),
            total_cycles: r.total_cycles,
        })
        .collect();
    let mut lines = RequestLines::new(&images);

    // Set-up as the operator pays it: spawn to `listening`. The first
    // daemons are shut down again right away; the last one is used.
    let host = HostSpeed::start();
    let setup_from = Instant::now();
    let mut setups = Vec::new();
    let mut running = None;
    for _ in 0..if opts.trace { 1 } else { SETUP_REPS } {
        if let Some((daemon, mut conn)) = running.take() {
            Daemon::shutdown(daemon, &mut conn)?;
        }
        let span = rec.enter("cli.zskip_serve", "spawn to listening", None);
        let daemon = Daemon::start(cli)?;
        rec.exit(span);
        setups.push(daemon.listening_s);
        let conn = Conn::open(&daemon.addr)?;
        running = Some((daemon, conn));
    }
    let (daemon, mut conn) = running.expect("at least one daemon started");
    let setup_to = Instant::now();
    let pid = daemon.proc.pid();

    let seconds = Duration::from_secs_f64(opts.seconds);
    let warm = closed_loop(&mut conn, &mut lines, 1, Duration::ZERO, Some(images.len()))?;
    let rss_after_warmup = proc_status_kib(pid, "VmRSS").unwrap_or(0);
    let rate = open_loop(&mut conn, &mut lines, RATE_HZ, seconds.mul_f64(RATE_SHARE))?;
    let sat = closed_loop(
        &mut conn,
        &mut lines,
        OUTSTANDING,
        seconds.mul_f64(1.0 - RATE_SHARE),
        None,
    )?;
    let speed = host.stop();
    let (stats_doc, stats_op_us) = stats_op(&mut conn)?;
    let rss_end = proc_status_kib(pid, "VmRSS").unwrap_or(0);
    let peak_kib = proc_status_kib(pid, "VmHWM").unwrap_or(0);
    let clean = Daemon::shutdown(daemon, &mut conn);

    // Everything below is outside the timed phases.
    let judged_warm = judge(&warm.sent, &warm.received, &goldens);
    let judged_rate = judge(&rate.sent, &rate.received, &goldens);
    let judged_sat = judge(&sat.sent, &sat.received, &goldens);
    let attempted = (judged_warm.len() + judged_rate.len() + judged_sat.len()) as u64;
    let mut failed = 0;
    for (phase, judged) in [
        ("warm-up", &judged_warm),
        ("rate", &judged_rate),
        ("sat", &judged_sat),
    ] {
        for j in judged.iter() {
            if let Err(why) = &j.verdict {
                failed += 1;
                eprintln!("resnet18_serve: {phase} request r{} failed: {why}", j.id);
            }
        }
    }
    if let Err(why) = &clean {
        eprintln!("resnet18_serve: unclean shutdown, every request counts as failed: {why}");
        failed = attempted;
    }

    let limit_ms = workload(RESNET18_SERVE).expect("defined").limit_ms;
    let rate_lat = ok_latencies(&judged_rate);
    let sat_ok = ok_latencies(&judged_sat).len();
    if rate_lat.is_empty() || sat_ok == 0 {
        return Err("resnet18_serve: a phase has no successful request; nothing to report".into());
    }
    let last_reply = sat
        .received
        .iter()
        .map(|(at, _)| *at)
        .max()
        .unwrap_or(sat.start);
    let sat_rate = sat_ok as f64 / last_reply.duration_since(sat.start).as_secs_f64();
    // Each phase is corrected with the host's slowdown over that phase.
    let slow_setup = speed.slowdown(setup_from, setup_to);
    let slow_rate = speed.slowdown(rate.start, sat.start);
    let slow_sat = speed.slowdown(sat.start, last_reply);
    let within = rate_lat
        .iter()
        .filter(|&&ms| ms / slow_rate <= limit_ms)
        .count();
    let late_max_ms = rate.late_ms.iter().copied().fold(0.0, f64::max);
    let rate_stats = ok_stats(&judged_rate);
    let sat_stats = ok_stats(&judged_sat);
    let overhead: Vec<f64> = judged_rate
        .iter()
        .filter_map(|j| {
            let stats = j.verdict.as_ref().ok()?;
            Some(j.latency_ms? - (stats.queue_us + stats.batch_us) / 1e3)
        })
        .collect();
    let queue_us: Vec<f64> = rate_stats.iter().map(|s| s.queue_us).collect();
    let batch_us: Vec<f64> = rate_stats.iter().map(|s| s.batch_us).collect();
    eprintln!(
        "resnet18_serve: rate phase {RATE_HZ} req/s: sent {} ok {} raw p50 {:.2} ms p95 {:.2} ms (ungated); generator late p95 {:.2} ms max {late_max_ms:.2} ms{}",
        judged_rate.len(),
        rate_lat.len(),
        median(&rate_lat),
        percentile(&rate_lat, 95.0),
        percentile(&rate.late_ms, 95.0),
        if late_max_ms > LATE_LIMIT_MS { " -- above 5 ms: the latencies (timed from due) include that client-side delay" } else { "" },
    );
    eprintln!(
        "resnet18_serve: sat phase {OUTSTANDING} outstanding: sent {} ok {sat_ok} -> raw {sat_rate:.2} img/s; mean batch {:.2} (rate) {:.2} (sat); {failed} of {attempted} failed",
        judged_sat.len(),
        mean(rate_stats.iter().map(|s| s.batch_size)),
        mean(sat_stats.iter().map(|s| s.batch_size)),
    );

    eprintln!(
        "resnet18_serve: host slowdown {slow_rate:.3} (rate) {slow_sat:.3} (sat) {slow_setup:.3} (set-up), {}: at undisturbed host speed p50 {:.2} ms, {:.2} img/s",
        speed.describe(),
        median(&rate_lat) / slow_rate,
        sat_rate * slow_sat,
    );

    if !opts.trace {
        return Ok(Outcome {
            attempted,
            failed,
            metrics: vec![
                ("setup_s", median(&setups) / slow_setup),
                ("latency_ms", median(&rate_lat) / slow_rate),
                ("images_per_s", sat_rate * slow_sat),
                (
                    "within_limit_share",
                    within as f64 / judged_rate.len() as f64,
                ),
                ("peak_rss_mib", peak_kib as f64 / 1024.0),
                ("accel_cycles", rate_stats[0].total_cycles as f64),
                ("accel_ddr_bytes", reports[0].ddr_bytes as f64),
            ],
        });
    }

    for (phase, judged) in [
        ("warm-up", &judged_warm),
        ("rate", &judged_rate),
        ("sat", &judged_sat),
    ] {
        for j in judged.iter() {
            record_request(&mut rec, phase, j);
        }
    }
    layers.set("host.slowdown", slow_rate);
    layers.set("client.latency_ms_p50", median(&rate_lat) / slow_rate);
    layers.set("client.images_per_s", sat_rate * slow_sat);
    layers.set("client.overhead_ms_p50", median(&overhead));
    layers.set("client.serve_p95_ms", percentile(&rate_lat, 95.0));
    layers.set("client.late_max_ms", late_max_ms);
    layers.set("core.serve.queue_wait_us_p50", median(&queue_us));
    layers.set("core.serve.queue_wait_us_p95", percentile(&queue_us, 95.0));
    layers.set("core.serve.batch_wall_us_p50", median(&batch_us));
    layers.set(
        "core.serve.batch_size_mean_rate",
        mean(rate_stats.iter().map(|s| s.batch_size)),
    );
    layers.set(
        "core.serve.batch_size_mean_sat",
        mean(sat_stats.iter().map(|s| s.batch_size)),
    );
    layers.set(
        "core.serve.rejected",
        stats_doc
            .get("rejected")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    );
    layers.set("core.serve.stats_op_us", stats_op_us);
    layers.set(
        "core.serve.rss_growth_kib",
        rss_end as f64 - rss_after_warmup as f64,
    );

    let image = &images[0];
    let (_, _, request_line) = lines.next();
    probes::wire(
        &mut rec,
        &mut layers,
        &request_line,
        qnet.spec.input,
        &reports[0],
    )?;
    probes::batch(&mut rec, &mut layers, &qnet, &session, &images)?;
    layers.set(
        "core.serve.efficiency",
        sat_rate / layers.get("core.batch.images_per_s"),
    );
    probes::accel(&mut rec, &mut layers, &qnet, image)?;
    let image_ms = probes::warm_image_ms(&mut rec, &qnet, &session, &images)?;
    probes::cpu_decomposition(&mut rec, &mut layers, &qnet, &session, image, image_ms)?;
    crate::finish_trace(&rec, RESNET18_SERVE)?;
    Ok(Outcome {
        attempted,
        failed,
        metrics: layers.values(),
    })
}
