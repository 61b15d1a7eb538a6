//! Open-loop client for `shapex serve`.
//!
//! Requests arrive as a Poisson process at a fixed rate, independent of
//! how fast the server answers, and each is timed from the moment it was
//! due. Two keep-alive connections carry the traffic: connection 0 takes
//! any request, connection 1 takes reads only, so `/delta` writes reach the
//! server strictly in schedule order and the client's model of the graph
//! stays exact. A request due while both connections are busy waits in the
//! client, and that wait counts in its latency.
//!
//! One invocation runs one segment at one rate and prints every sample;
//! `perfbench/run.py` strings segments into the reference rate and the
//! rate ladder and computes the summaries.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Value};

use crate::gen::{unit, Req, Traffic, MAP_NODES};
use crate::Args;

/// Server idle timeout is 2 s; reconnect before reusing a connection idle
/// for longer than this.
const IDLE_RECONNECT: Duration = Duration::from_millis(1500);
/// Most response bytes a segment holds for verification after it ends.
const MAX_HELD_BYTES: usize = 256 << 20;
/// A rung is abandoned once requests start this many limits late, which
/// bounds the time an overloaded rung takes.
const ABANDON_LAGS: f64 = 10.0;

/// One HTTP/1.1 keep-alive connection.
pub struct Conn {
    addr: String,
    /// Acknowledge the response's segments at once (see [`quickack`]).
    quickack: bool,
    stream: Option<BufReader<TcpStream>>,
    last_used: Instant,
}

/// A parsed response.
pub struct Response {
    pub status: u16,
    pub exit: Option<u8>,
    pub body: String,
}

impl Conn {
    pub fn new(addr: &str, quickack: bool) -> Conn {
        Conn {
            addr: addr.to_string(),
            quickack,
            stream: None,
            last_used: Instant::now(),
        }
    }

    pub fn send(&mut self, method: &str, path: &str, body: &str) -> Result<Response, String> {
        if self.last_used.elapsed() > IDLE_RECONNECT {
            self.stream = None;
        }
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| e.to_string())?;
            self.stream = Some(BufReader::new(s));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        let mut request = head.into_bytes();
        request.extend_from_slice(body.as_bytes());
        let result = reader
            .get_mut()
            .write_all(&request)
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| {
                if self.quickack {
                    quickack(reader.get_ref());
                }
                read_response(reader)
            });
        self.last_used = Instant::now();
        match result {
            Ok((resp, close)) => {
                if close {
                    self.stream = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Puts the socket in quick-ACK mode for the coming response.
///
/// The server writes a response's head and body with two `write` calls on
/// a socket with Nagle's algorithm on, so the body waits until the head is
/// acknowledged. A client in Linux's delayed-ACK mode holds that ACK for
/// 40 ms or more, and whether it does depends on the connection's recent
/// timing: latencies then flip between two modes from run to run. The
/// benchmark's client ACKs at once, which keeps its latencies to the
/// server's own work; the traced run measures the stall a delayed-ACK
/// client sees as `server.ack_stall_ms`.
pub fn quickack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: the descriptor is owned by `stream`, which outlives the
    // call; `value` points at a live `i32` whose size is passed as `len`.
    // A failure only leaves the socket in its default ACK mode.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            &on,
            std::mem::size_of::<i32>() as u32,
        );
    }
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Result<(Response, bool), String> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read: {e}"))?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let (mut len, mut close, mut exit) = (0usize, false, None);
    loop {
        line.clear();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        let Some((name, value)) = l.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => len = value.parse().map_err(|_| "bad Content-Length")?,
            "connection" => close = value.eq_ignore_ascii_case("close"),
            "x-shapex-exit" => exit = value.parse().ok(),
            _ => {}
        }
    }
    let mut body = vec![0u8; len];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    Ok((Response { status, exit, body }, close))
}

/// The verdict of `node` under `<Protein>` in the `after` report of a
/// `/delta` document.
fn after_verdict<'a>(doc: &'a str, node: &str) -> Option<&'a str> {
    let start = doc.find("\"after\": {")?;
    let end = doc.find("\n  \"before\": {")?;
    let after = &doc[start..end];
    let mut from = 0;
    let key = format!("\"node\": \"{node}\",");
    while let Some(i) = after[from..].find(&key) {
        let row = &after[from + i..];
        let row = &row[..row.find('}').unwrap_or(row.len())];
        if row.contains("\"shape\": \"Protein\"") {
            let v = row.split("\"verdict\": \"").nth(1)?;
            return v.split('"').next();
        }
        from += i + key.len();
    }
    None
}

/// Checks a response against the traffic model.
pub fn verify(req: &Req, resp: &Response) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!("HTTP {}: {}", resp.status, resp.body.trim()));
    }
    match req {
        Req::Map(_) => {
            let good = resp.body.matches("\"as_expected\": true").count();
            if resp.exit != Some(0) || good != MAP_NODES {
                return Err(format!(
                    "/map: {good} of {MAP_NODES} rows as expected (exit {:?})",
                    resp.exit
                ));
            }
        }
        Req::Delta(d) => {
            let want = if d.conforms_after {
                "conforms"
            } else {
                "fails"
            };
            let got = after_verdict(&resp.body, &d.node);
            if got != Some(want) {
                return Err(format!("/delta: {} is {got:?}, expected {want}", d.node));
            }
        }
    }
    Ok(())
}

fn send(conn: &mut Conn, req: &Req) -> Result<Response, String> {
    match req {
        Req::Map(m) => conn.send("POST", "/map?id=default", &m.body),
        Req::Delta(d) => conn.send("POST", "/delta?id=default", &d.body),
    }
}

/// One timed request.
struct Sample {
    delta: bool,
    /// Due → response read.
    latency_ms: f64,
    /// Due → sent: time spent waiting for a free connection.
    wait_ms: f64,
    /// Ready to send (due, connection free) → sent: the client's own lag.
    lateness_ms: f64,
    /// False for writes sent after the segment was abandoned: they are
    /// verified but not timed.
    timed: bool,
    error: Option<String>,
}

/// Runs one segment at `rate` requests/s for `seconds`, or until requests
/// fall `abandon_ms` behind schedule; abandoned writes are still sent
/// (untimed) so the graph model stays exact.
fn segment(
    conns: &mut [Conn; 2],
    traffic: &mut Traffic,
    rng: &mut StdRng,
    rate: f64,
    seconds: f64,
    abandon_ms: f64,
) -> (Vec<Sample>, bool) {
    let mut schedule: Vec<(f64, Req)> = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - unit(rng)).ln() / rate;
        if t >= seconds {
            break;
        }
        schedule.push((t, traffic.next()));
    }
    let taken = Mutex::new(vec![false; schedule.len()]);
    let abandoned = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(5);
    let schedule = &schedule;
    let [c0, c1] = conns;
    // `/delta` bodies are verified after the segment, so the client's own
    // scan of a multi-megabyte report never delays a due request; past
    // this many held bytes they are verified on the spot.
    let held = AtomicUsize::new(0);
    let worker = |conn: &mut Conn, writes: bool| {
        let mut out: Vec<(usize, Sample, Option<Response>)> = Vec::new();
        let mut cursor = 0;
        loop {
            let picked = {
                let mut taken = taken.lock().expect("schedule lock");
                let next = (cursor..schedule.len())
                    .find(|&i| !taken[i] && (writes || matches!(schedule[i].1, Req::Map(_))));
                if let Some(i) = next {
                    taken[i] = true;
                    cursor = i + 1;
                }
                next
            };
            let Some(i) = picked else { break };
            let (due_s, req) = &schedule[i];
            let ready = Instant::now();
            let due = start + Duration::from_secs_f64(*due_s);
            let is_delta = matches!(req, Req::Delta(_));
            let late = abandoned.load(Ordering::Relaxed);
            if late && !is_delta {
                continue;
            }
            if let Some(d) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(d);
            }
            let sent = Instant::now();
            let result = send(conn, req);
            let done = Instant::now();
            let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
            let wait_ms = ms(due, sent);
            if wait_ms > abandon_ms {
                abandoned.store(true, Ordering::Relaxed);
            }
            let mut sample = Sample {
                delta: is_delta,
                latency_ms: ms(due, done),
                wait_ms,
                lateness_ms: ms(due.max(ready), sent),
                timed: !late,
                error: None,
            };
            let mut keep = None;
            match result {
                Ok(r)
                    if is_delta
                        && held.fetch_add(r.body.len(), Ordering::Relaxed) < MAX_HELD_BYTES =>
                {
                    keep = Some(r)
                }
                Ok(r) => sample.error = verify(req, &r).err(),
                Err(e) => sample.error = Some(e),
            }
            out.push((i, sample, keep));
        }
        out
    };
    let (mut a, b) = std::thread::scope(|s| {
        let h = s.spawn(|| worker(c1, false));
        let a = worker(c0, true);
        (a, h.join().expect("client connection thread"))
    });
    a.extend(b);
    // Schedule order is due order.
    a.sort_by_key(|x| x.0);
    let samples = a
        .into_iter()
        .map(|(i, mut sample, kept)| {
            if let Some(resp) = kept {
                sample.error = verify(&schedule[i].1, &resp).err();
            }
            sample
        })
        .filter(|s| s.timed || s.error.is_some())
        .collect();
    (samples, abandoned.into_inner())
}

/// `load`: one open-loop segment at `--rate` requests/s for `--seconds`,
/// against the entry `default` of the server at `--addr`. `--round K`
/// picks the K-th traffic stream of the seed; `--warmup` first asks for
/// one full typing, which fills the engine's memo. Prints the raw samples.
/// A write whose revert is still pending at the end is reverted (untimed),
/// so every segment leaves the graph as generated.
pub fn run(args: &Args) -> Result<Value, String> {
    let w = args.workload()?;
    let seed = args.seed()?;
    let addr = args.get("addr")?;
    let num = |name: &str| -> Result<f64, String> {
        args.get(name)?
            .parse()
            .map_err(|e| format!("--{name}: {e}"))
    };
    let (rate, seconds, limit_ms) = (num("rate")?, num("seconds")?, num("limit-ms")?);
    let round = num("round")? as u64;
    let (_, service_n) = w.sizes(args.smoke());
    let graph = w.graph(service_n, seed.wrapping_add(1));
    let mut traffic = Traffic::for_round(&graph, seed, round);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1000).wrapping_add(round) ^ 0x0a7e);
    let mut conns = [Conn::new(addr, true), Conn::new(addr, true)];

    if args.flag("warmup") {
        let warm = conns[0].send("POST", "/validate?id=default", "")?;
        if warm.status != 200 {
            return Err(format!("warm-up /validate: HTTP {}", warm.status));
        }
    }
    let (samples, abandoned) = segment(
        &mut conns,
        &mut traffic,
        &mut rng,
        rate,
        seconds,
        limit_ms * ABANDON_LAGS,
    );
    if let Some(Req::Delta(revert)) = traffic.flush() {
        let resp = conns[0].send("POST", "/delta?id=default", &revert.body)?;
        verify(&Req::Delta(revert), &resp)?;
    }

    let column = |f: &dyn Fn(&Sample) -> Option<f64>| -> Value {
        Value::Array(samples.iter().filter_map(f).map(Value::from).collect())
    };
    let mut lateness: Vec<f64> = samples.iter().map(|s| s.lateness_ms).collect();
    lateness.sort_by(f64::total_cmp);
    let failures: Vec<Value> = samples
        .iter()
        .filter_map(|s| s.error.as_deref())
        .map(Value::from)
        .collect();
    Ok(json!({
        "rate": rate,
        "seconds": seconds,
        "attempted": samples.len(),
        "failed": failures.len(),
        "failures": Value::Array(failures.into_iter().take(5).collect()),
        "abandoned": abandoned,
        "map_ms": column(&|s| (!s.delta && s.error.is_none()).then_some(s.latency_ms)),
        "delta_ms": column(&|s| (s.delta && s.error.is_none()).then_some(s.latency_ms)),
        "wait_ms": column(&|s| Some(s.wait_ms)),
        "lateness_p99_ms": lateness.get(lateness.len() * 99 / 100).copied().unwrap_or(0.0),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn after_verdict_reads_the_after_report_only() {
        let doc = "{\n  \"after\": {\n    \"results\": [\n      {\n        \"node\": \"<a>\",\n        \"shape\": \"Protein\",\n        \"verdict\": \"fails\"\n      }\n    ]\n  },\n  \"before\": {\n    \"results\": [\n      {\n        \"node\": \"<a>\",\n        \"shape\": \"Protein\",\n        \"verdict\": \"conforms\"\n      }\n    ]\n  }\n}\n";
        assert_eq!(after_verdict(doc, "<a>"), Some("fails"));
        assert_eq!(after_verdict(doc, "<b>"), None);
    }
}
