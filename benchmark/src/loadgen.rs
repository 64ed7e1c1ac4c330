//! The load generator: JSONL clients over TCP, closed loop and open loop.
//!
//! Every response is checked as it arrives: it must be a `prediction` line
//! carrying the id of the oldest outstanding request (a connection answers
//! in order) and, where an oracle is given, the exact bits the in-process
//! engine computed for that entity during set-up.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::config::LATE_LIMIT;
use crate::host::thread_cpu_s;
use crate::stats;
use crate::trace::Tracer;

/// Where requests go and what the answers must be. `keys[i]` is the
/// primary key of entity `i`; `oracle[i]` its expected prediction. Without
/// an oracle (reads racing ingest, where the right answer depends on the
/// epoch) a response must still be a probability for the right id.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    pub addr: &'a str,
    pub keys: &'a [i64],
    pub oracle: Option<&'a [f64]>,
}

impl Target<'_> {
    fn accepts(&self, response: Option<(u64, f64)>, id: u64, entity: u32) -> bool {
        match (response, self.oracle) {
            (Some((rid, v)), Some(oracle)) => {
                rid == id && v.to_bits() == oracle[entity as usize].to_bits()
            }
            (Some((rid, v)), None) => rid == id && (0.0..=1.0).contains(&v),
            (None, _) => false,
        }
    }
}

/// `{"id": 7, "prediction": 0.8315}` → `(7, 0.8315)`; anything else (an
/// error line, a torn line) is `None`. The server prints the shortest
/// decimal that round-trips, so parsing gives back the exact bits.
fn parse_prediction(line: &str) -> Option<(u64, f64)> {
    let rest = line.trim_end().strip_prefix("{\"id\": ")?;
    let (id, rest) = rest.split_once(", \"prediction\": ")?;
    let value = rest.strip_suffix('}')?;
    Some((id.parse().ok()?, value.parse().ok()?))
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    line: String,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the benchmark's own server");
        // Requests are single small writes; never let Nagle hold one back.
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let writer = stream.try_clone().expect("clone client socket");
        Client {
            reader: BufReader::new(stream),
            writer,
            out: Vec::with_capacity(64),
            line: String::with_capacity(64),
        }
    }

    fn send(&mut self, id: u64, key: i64) {
        send_on(&mut self.writer, &mut self.out, id, key);
    }

    fn recv(&mut self) -> Option<(u64, f64)> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(n) if n > 0 => parse_prediction(&self.line),
            _ => None,
        }
    }

    /// A few untimed exchanges: the first one on a fresh connection stalls
    /// ~40 ms on a delayed ACK (the server sets no `TCP_NODELAY`).
    fn warm(&mut self, target: &Target, stream: &[u32]) -> (u64, u64) {
        let mut failed = 0;
        for (i, &entity) in stream.iter().take(WARM_EXCHANGES).enumerate() {
            self.send(i as u64, target.keys[entity as usize]);
            let response = self.recv();
            failed += u64::from(!target.accepts(response, i as u64, entity));
        }
        (stream.len().min(WARM_EXCHANGES) as u64, failed)
    }
}

const WARM_EXCHANGES: usize = 32;

fn send_on(writer: &mut TcpStream, out: &mut Vec<u8>, id: u64, key: i64) {
    out.clear();
    writeln!(out, "{{\"id\": {id}, \"entity\": {key}}}").expect("format request");
    writer
        .write_all(out)
        .expect("write to the benchmark's own server");
}

/// Result of a closed-loop phase.
pub struct ClosedLoop {
    /// Responses received inside the measured window, all connections.
    pub responses: u64,
    pub measured: Duration,
    pub attempted: u64,
    pub failed: u64,
}

impl ClosedLoop {
    /// Responses per second over the whole window. The rate wanders by
    /// +-10 % from one quarter second to the next on the reference host;
    /// the plain mean over the window repeats better than a median of
    /// slices (3 % against 4.5 % run to run over 12.5 s).
    pub fn rps(&self) -> f64 {
        self.responses as f64 / self.measured.as_secs_f64()
    }
}

/// Closed loop: one connection per entry of `streams`, each keeping
/// `window` requests in flight and sending the next as soon as one
/// completes. After `warm` of untimed traffic, responses are counted for
/// `measured`.
pub fn closed_loop(
    target: Target,
    streams: &[Vec<u32>],
    window: usize,
    warm: Duration,
    measured: Duration,
) -> ClosedLoop {
    let t0 = Instant::now() + warm;
    let end = t0 + measured;
    let per_conn: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                scope.spawn(move || {
                    let mut client = Client::connect(target.addr);
                    let (mut sent, mut done, mut failed, mut counted) = (0u64, 0u64, 0u64, 0u64);
                    let entity = |i: u64| stream[(i % stream.len() as u64) as usize];
                    let mut now = Instant::now();
                    loop {
                        while sent - done < window as u64 && now < end {
                            client.send(sent, target.keys[entity(sent) as usize]);
                            sent += 1;
                        }
                        if sent == done {
                            break;
                        }
                        let response = client.recv();
                        now = Instant::now();
                        failed += u64::from(!target.accepts(response, done, entity(done)));
                        counted += u64::from(now >= t0 && now < end);
                        done += 1;
                    }
                    (counted, sent, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread"))
            .collect()
    });
    let mut out = ClosedLoop {
        responses: 0,
        measured,
        attempted: 0,
        failed: 0,
    };
    for (counted, sent, failed) in per_conn {
        out.responses += counted;
        out.attempted += sent;
        out.failed += failed;
    }
    out
}

/// Result of an open-loop phase.
pub struct OpenLoop {
    /// Due instant → response received, ascending, microseconds.
    pub latencies_us: Vec<f64>,
    /// How far behind its schedule the sender ran at worst, and the share
    /// of requests it sent more than a tenth of the pacing interval late.
    pub max_late_us: f64,
    pub late_share: f64,
    pub attempted: u64,
    pub failed: u64,
    /// CPU the two generator threads used, to be taken off the process
    /// total when costing the server.
    pub generator_cpu_s: f64,
}

/// Open loop on one connection: a sender thread releases request `i` at
/// `t0 + i / rate` whatever the server does, the calling thread receives.
/// Latency runs from the instant a request was *due*, so a stall is charged
/// to every request it delays.
pub fn open_loop(target: Target, stream: &[u32], rate: f64, duration: Duration) -> OpenLoop {
    let mut client = Client::connect(target.addr);
    let (warm_sent, warm_failed) = client.warm(&target, stream);
    let n = (rate * duration.as_secs_f64()) as u64;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let entity = |i: u64| stream[(i % stream.len() as u64) as usize];
    let mut writer = client.writer.try_clone().expect("clone client socket");
    let cpu_before = thread_cpu_s();
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |i: u64| t0 + Duration::from_secs_f64(i as f64 / rate);

    let mut latencies_us = Vec::with_capacity(n as usize);
    let mut failed = warm_failed;
    let (max_late, late_count, sender_cpu_s) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut out = Vec::with_capacity(64);
            let (mut max_late, mut late_count) = (Duration::ZERO, 0u64);
            for i in 0..n {
                let late = wait_until(due(i));
                max_late = max_late.max(late);
                late_count += u64::from(late > interval / 10);
                send_on(&mut writer, &mut out, i, target.keys[entity(i) as usize]);
            }
            (max_late, late_count, thread_cpu_s())
        });
        for i in 0..n {
            let response = client.recv();
            let latency = Instant::now().saturating_duration_since(due(i));
            failed += u64::from(!target.accepts(response, i, entity(i)));
            latencies_us.push(latency.as_secs_f64() * 1e6);
        }
        sender.join().expect("open-loop sender thread")
    });
    // A request released more than the limit late was not offered at the
    // stated rate: the phase did not measure what it claims.
    if max_late > LATE_LIMIT {
        failed += 1;
    }
    stats::sort(&mut latencies_us);
    OpenLoop {
        latencies_us,
        max_late_us: max_late.as_secs_f64() * 1e6,
        late_share: late_count as f64 / n.max(1) as f64,
        attempted: warm_sent + n,
        failed,
        generator_cpu_s: sender_cpu_s + (thread_cpu_s() - cpu_before),
    }
}

/// Sleep, then spin, until `due`; returns how late the wake-up was. The
/// sleep leaves a margin larger than the scheduler's wake-up jitter, so the
/// release instant is exact to about a microsecond.
pub fn wait_until(due: Instant) -> Duration {
    const SPIN_MARGIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= due {
            return now - due;
        }
        let gap = due - now;
        if gap > SPIN_MARGIN {
            std::thread::sleep(gap - SPIN_MARGIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One connection, one request in flight, `n` requests: the round trip
/// with nothing overlapping, so its parts add up. Returns the round-trip
/// times in microseconds and the failures; a traced run records one span
/// per request.
pub fn sequential(
    target: Target,
    stream: &[u32],
    n: usize,
    tracer: &mut Tracer,
) -> (Vec<f64>, u64) {
    let mut client = Client::connect(target.addr);
    let (_, mut failed) = client.warm(&target, stream);
    let mut times_us = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let entity = stream[(i % stream.len() as u64) as usize];
        let span = tracer.open("serve.socket.roundtrip", i);
        client.send(i, target.keys[entity as usize]);
        let response = client.recv();
        times_us.push(tracer.close(span) * 1e6);
        failed += u64::from(!target.accepts(response, i, entity));
    }
    (times_us, failed)
}

#[cfg(test)]
mod tests {
    use super::parse_prediction;

    #[test]
    fn parses_prediction_lines_only() {
        assert_eq!(
            parse_prediction("{\"id\": 7, \"prediction\": 0.8315}\n"),
            Some((7, 0.8315))
        );
        assert_eq!(
            parse_prediction("{\"id\": 7, \"error\": \"unknown entity\"}"),
            None
        );
        assert_eq!(parse_prediction(""), None);
    }
}
