//! The JSONL front-end over the sharded serving tier: socket and stdin.
//!
//! Both front-ends run one loop, [`serve_stream`]: block for one request
//! line, then take every further *complete* line already sitting in the
//! read buffer — no second `read` — up to `ServeConfig::max_batch`. That
//! burst is parsed as a whole, its well-formed keys go through **one**
//! [`ShardedEngine::predict_batch_keys`] call (one scatter, at most one
//! job per shard), and its responses go out in request order in **one**
//! `write`. Framing is greedy: a lone line never waits for company, and
//! a pipelining client pays one engine call and one write per burst, not
//! per line.
//!
//! `--listen` serves the same loop over TCP or a Unix domain socket, one
//! handler thread per accepted connection; TCP connections get
//! `TCP_NODELAY`, so a response is never held back waiting for an ACK.
//! Concurrent connections' bursts meet in the shard inboxes
//! ([`InboxSet`](crate::steal::InboxSet)), whose greedy drain fuses them
//! into shared inference batches, and an idle shard steals a backlogged
//! neighbor's jobs so one hot connection cannot serialize the tier.
//! Responses on one connection stay in request order, so clients may
//! pipeline without reordering logic; the `id` echo still makes
//! cross-checking trivial.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use relgraph_obs as obs;

use crate::error::{ServeError, ServeResult};
use crate::protocol::{parse_request, recover_id, response_err, response_ok};
use crate::sharded::ShardedEngine;

/// A bound listening socket, not yet serving.
pub enum ServerListener {
    /// A TCP listener (address contained a `:`).
    Tcp(TcpListener),
    /// A Unix domain socket; the path is unlinked when serving stops.
    Unix(UnixListener, PathBuf),
}

/// Bind `addr`: anything containing `:` is a TCP `host:port` (port `0`
/// picks a free one), anything else is a Unix socket path (an existing
/// stale socket file is replaced).
pub fn bind(addr: &str) -> ServeResult<ServerListener> {
    if addr.contains(':') {
        let l = TcpListener::bind(addr)
            .map_err(|e| ServeError::Engine(format!("cannot bind tcp `{addr}`: {e}")))?;
        Ok(ServerListener::Tcp(l))
    } else {
        let path = PathBuf::from(addr);
        if path.exists() {
            let _ = std::fs::remove_file(&path);
        }
        let l = UnixListener::bind(&path)
            .map_err(|e| ServeError::Engine(format!("cannot bind unix `{addr}`: {e}")))?;
        Ok(ServerListener::Unix(l, path))
    }
}

impl ServerListener {
    /// The bound address, printable (resolves TCP port `0`).
    pub fn local_addr(&self) -> String {
        match self {
            ServerListener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<tcp>".to_string()),
            ServerListener::Unix(_, p) => p.display().to_string(),
        }
    }

    /// Accept and serve connections until `stop` goes true, then drain:
    /// already-accepted connections run to EOF before this returns. Each
    /// connection is one scoped thread running [`serve_stream`].
    pub fn run(self, engine: &ShardedEngine, stop: &AtomicBool) -> ServeResult<()> {
        match &self {
            ServerListener::Tcp(l) => l.set_nonblocking(true),
            ServerListener::Unix(l, _) => l.set_nonblocking(true),
        }
        .map_err(|e| ServeError::Engine(format!("cannot set nonblocking: {e}")))?;
        std::thread::scope(|scope| {
            while !stop.load(Ordering::Relaxed) {
                let stream: Option<Box<dyn ReadWriteStream>> = match &self {
                    ServerListener::Tcp(l) => match l.accept() {
                        Ok((s, _)) => {
                            // Best effort: without it a response can sit
                            // behind the client's delayed ACK.
                            let _ = s.set_nodelay(true);
                            Some(Box::new(s))
                        }
                        Err(_) => None,
                    },
                    ServerListener::Unix(l, _) => match l.accept() {
                        Ok((s, _)) => Some(Box::new(s)),
                        Err(_) => None,
                    },
                };
                match stream {
                    Some(s) => {
                        if obs::enabled() {
                            obs::add("serve.connections", 1);
                        }
                        scope.spawn(move || handle_connection(engine, s));
                    }
                    None => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        });
        if let ServerListener::Unix(_, path) = &self {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Object-safe duplex stream so TCP and Unix connections share a handler.
trait ReadWriteStream: Read + Write + Send {
    fn try_clone_stream(&self) -> std::io::Result<Box<dyn ReadWriteStream>>;
}

impl ReadWriteStream for std::net::TcpStream {
    fn try_clone_stream(&self) -> std::io::Result<Box<dyn ReadWriteStream>> {
        Ok(Box::new(self.try_clone()?))
    }
}

impl ReadWriteStream for std::os::unix::net::UnixStream {
    fn try_clone_stream(&self) -> std::io::Result<Box<dyn ReadWriteStream>> {
        Ok(Box::new(self.try_clone()?))
    }
}

fn handle_connection(engine: &ShardedEngine, stream: Box<dyn ReadWriteStream>) {
    let Ok(write_half) = stream.try_clone_stream() else {
        return;
    };
    // A read or write error (the client hung up, or sent a line that is
    // not UTF-8) ends this connection only.
    let _ = serve_stream(engine, stream, write_half, |_, _| {});
}

/// Answer a JSONL request stream until EOF, one burst at a time (module
/// docs): one response line per non-blank request line, in request order,
/// each burst's responses written with one `write` and flushed. After each
/// flush `on_burst` gets the burst's line count and its wall time, from the
/// first line in hand to the flush.
///
/// Blank lines are skipped unanswered; `\r\n` endings are accepted. Stops
/// with an error on a read or write failure or a line that is not UTF-8 —
/// every line before it has been answered.
pub fn serve_stream<R: Read, W: Write>(
    engine: &ShardedEngine,
    input: R,
    mut output: W,
    mut on_burst: impl FnMut(usize, Duration),
) -> std::io::Result<()> {
    let mut bursts = Bursts {
        input: BufReader::new(input),
        text: String::new(),
        ends: Vec::new(),
        max: engine.max_batch(),
    };
    let mut out = String::new();
    while let Some(started) = bursts.next()? {
        out.clear();
        answer(engine, bursts.lines(), &mut out);
        output.write_all(out.as_bytes())?;
        output.flush()?;
        on_burst(bursts.ends.len(), started.elapsed());
    }
    Ok(())
}

/// One protocol line → one response line (no trailing newline): a burst of
/// one, exactly what [`serve_stream`] answers for this line on its own.
pub fn handle_line(engine: &ShardedEngine, line: &str) -> String {
    let mut out = String::new();
    answer(engine, std::iter::once(line), &mut out);
    out.pop(); // the newline
    out
}

/// Answer one burst into `out`, one line per request, in order: parse
/// every line, score the well-formed ones with one `predict_batch_keys`
/// call, and on a parse failure still recover the caller's id when it is
/// legible.
fn answer<'a>(engine: &ShardedEngine, lines: impl Iterator<Item = &'a str>, out: &mut String) {
    // Per line: the request id to pair with the next score, or the
    // finished error response.
    let mut slots: Vec<Result<u64, String>> = Vec::new();
    let mut keys = Vec::new();
    for line in lines {
        slots.push(match parse_request(line) {
            Ok(req) => {
                keys.push(req.entity);
                Ok(req.id)
            }
            Err(e) => Err(response_err(recover_id(line), &e)),
        });
    }
    let mut scores = if keys.is_empty() {
        Vec::new()
    } else {
        engine.predict_batch_keys(&keys)
    }
    .into_iter();
    for slot in slots {
        let response = match slot {
            Ok(id) => match scores.next().expect("one result per key") {
                Ok(p) => response_ok(id, p),
                Err(e) => response_err(Some(id), &e.to_string()),
            },
            Err(response) => response,
        };
        out.push_str(&response);
        out.push('\n');
    }
}

/// Greedy line framing over a buffered reader; holds one burst's lines
/// back to back in `text`, line `i` ending at `ends[i]`.
struct Bursts<R> {
    input: BufReader<R>,
    text: String,
    ends: Vec<usize>,
    max: usize,
}

impl<R: Read> Bursts<R> {
    /// Block until one non-blank line is in hand, then take every further
    /// complete line already buffered, up to `max` lines in all. Returns
    /// the instant the first line was in hand, or `None` at EOF.
    fn next(&mut self) -> std::io::Result<Option<Instant>> {
        self.text.clear();
        self.ends.clear();
        let mut raw = Vec::new();
        while self.ends.is_empty() {
            raw.clear();
            if self.input.read_until(b'\n', &mut raw)? == 0 {
                return Ok(None);
            }
            let line = std::str::from_utf8(&raw)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            push_line(&mut self.text, &mut self.ends, line);
        }
        let started = Instant::now();
        while self.ends.len() < self.max {
            let buffered = self.input.buffer();
            let Some(newline) = buffered.iter().position(|&b| b == b'\n') else {
                break; // an incomplete line waits for the next blocking read
            };
            // A line that is not UTF-8 is left for that read to report,
            // after this burst is answered.
            let Ok(line) = std::str::from_utf8(&buffered[..=newline]) else {
                break;
            };
            push_line(&mut self.text, &mut self.ends, line);
            self.input.consume(newline + 1);
        }
        Ok(Some(started))
    }

    fn lines(&self) -> impl Iterator<Item = &str> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(a, &b)| &self.text[a..b])
    }
}

/// Append `line` to a burst unless it is blank, dropping its `\n` or
/// `\r\n` the way `BufRead::lines` does.
fn push_line(text: &mut String, ends: &mut Vec<usize>, line: &str) {
    let line = match line.strip_suffix('\n') {
        Some(l) => l.strip_suffix('\r').unwrap_or(l),
        None => line,
    };
    if !line.trim().is_empty() {
        text.push_str(line);
        ends.push(text.len());
    }
}
