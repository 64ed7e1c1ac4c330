//! Burst framing is invisible on the wire.
//!
//! The front-end answers every complete line already read as one burst:
//! one engine call, responses in order, one write. Each case here checks
//! that what a client gets back is byte for byte, and in the same order,
//! what calling `handle_line` once per non-blank line gives — over TCP,
//! and through `serve_stream` on an in-memory stream the way the CLI's
//! stdin mode runs it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use relgraph_datagen::{generate_ecommerce, EcommerceConfig};
use relgraph_pq::ExecConfig;
use relgraph_serve::{bind, handle_line, serve_stream, ServeConfig, ShardedEngine};

const QUERY: &str = "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id";

fn fit(max_batch: usize) -> ShardedEngine {
    let db = generate_ecommerce(&EcommerceConfig {
        customers: 40,
        products: 10,
        seed: 23,
        ..Default::default()
    })
    .unwrap();
    let exec = ExecConfig {
        epochs: 2,
        hidden_dim: 8,
        fanouts: vec![4, 4],
        ..Default::default()
    };
    let cfg = ServeConfig {
        max_batch,
        ..ServeConfig::default()
    };
    ShardedEngine::fit(db, QUERY, &exec, cfg, 2).unwrap()
}

/// One engine at the default `max_batch`, shared by every case that does
/// not set its own.
fn engine() -> &'static ShardedEngine {
    static ENGINE: OnceLock<ShardedEngine> = OnceLock::new();
    ENGINE.get_or_init(|| fit(ServeConfig::default().max_batch))
}

/// What the wire must carry for `input`: `handle_line` once per non-blank
/// line, split the way `BufRead::lines` splits.
fn per_line(engine: &ShardedEngine, input: &str) -> String {
    let mut out = String::new();
    for line in input.as_bytes().lines() {
        let line = line.unwrap();
        if !line.trim().is_empty() {
            out.push_str(&handle_line(engine, &line));
            out.push('\n');
        }
    }
    out
}

/// Valid lines, malformed lines with and without a legible id, blank
/// lines, `\r\n` endings, an unknown JSON key, unknown and mistyped
/// entities, and a last line with no newline.
fn mixed_input() -> String {
    let mut s = String::new();
    for i in 0..40 {
        s.push_str(&format!("{{\"id\": {i}, \"entity\": {}}}\n", i % 45));
    }
    s.push_str("\n   \n");
    s.push_str("{\"id\": 40, \"entity\": 3}\r\n");
    s.push_str("{\"id\": 41, \"entity\"\n");
    s.push_str("garbage\r\n");
    s.push_str("{\"id\": 43, \"entity\": 5, \"bogus\": 1}\n");
    s.push_str("{\"id\": 44, \"entity\": 99999}\n");
    s.push_str("{\"id\": 45, \"entity\": \"C-1\"}\n");
    s.push_str("\t\r\n");
    s.push_str("{\"id\": 46, \"entity\": 7}");
    s
}

/// Serve `engine` on a loopback port while `f` runs against it.
fn with_server<R>(engine: &ShardedEngine, f: impl FnOnce(&str) -> R) -> R {
    let listener = bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| listener.run(engine, &stop).unwrap());
        let out = f(&addr);
        stop.store(true, Ordering::Relaxed);
        server.join().unwrap();
        out
    })
}

fn connect(addr: &str) -> TcpStream {
    let conn = TcpStream::connect(addr).unwrap();
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn
}

/// Send `parts` as separate writes, pausing between them, then close the
/// write half and read every response to EOF.
fn exchange(addr: &str, parts: &[&str], pause: Duration) -> String {
    let mut conn = connect(addr);
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(pause);
        }
        conn.write_all(part.as_bytes()).unwrap();
    }
    conn.shutdown(Shutdown::Write).unwrap();
    let mut got = String::new();
    conn.read_to_string(&mut got).unwrap();
    got
}

/// `serve_stream` over an in-memory stream, as the stdin mode runs it:
/// the responses and each burst's line count.
fn stream_in_memory(engine: &ShardedEngine, input: &[u8]) -> (String, Vec<usize>) {
    let mut out = Vec::new();
    let mut bursts = Vec::new();
    serve_stream(engine, input, &mut out, |n, _| bursts.push(n)).unwrap();
    (String::from_utf8(out).unwrap(), bursts)
}

#[test]
fn one_pipelined_write_of_mixed_lines() {
    let engine = engine();
    let input = mixed_input();
    let want = per_line(engine, &input);
    assert_eq!(want.lines().count(), 47, "47 non-blank lines, 47 answers");
    let got = with_server(engine, |addr| exchange(addr, &[&input], Duration::ZERO));
    assert_eq!(got, want);
    let (got, bursts) = stream_in_memory(engine, input.as_bytes());
    assert_eq!(got, want);
    // 47 lines at a bound of 32: a full burst, the complete rest, and the
    // unterminated last line once EOF proves it complete.
    assert_eq!(bursts, vec![32, 14, 1]);
}

#[test]
fn a_line_split_across_two_writes() {
    let engine = engine();
    let input = "{\"id\": 1, \"entity\": 2}\n{\"id\": 2, \"ent\
                 ity\": 4}\r\n{\"id\": 3, \"entity\": 6}\n";
    let want = per_line(engine, input);
    let (head, tail) = input.split_at(input.find("ity\": 4").unwrap());
    let got = with_server(engine, |addr| {
        exchange(addr, &[head, tail], Duration::from_millis(50))
    });
    assert_eq!(got, want);
    // Split inside the `\r\n` too.
    let (head, tail) = input.split_at(input.find('\r').unwrap() + 1);
    let got = with_server(engine, |addr| {
        exchange(addr, &[head, tail], Duration::from_millis(50))
    });
    assert_eq!(got, want);
}

#[test]
fn max_batch_one_answers_line_by_line() {
    let engine = fit(1);
    let input = mixed_input();
    let want = per_line(&engine, &input);
    let got = with_server(&engine, |addr| exchange(addr, &[&input], Duration::ZERO));
    assert_eq!(got, want);
    let (got, bursts) = stream_in_memory(&engine, input.as_bytes());
    assert_eq!(got, want);
    assert_eq!(bursts, vec![1; 47]);
}

#[test]
fn a_late_line_after_idle_is_answered_without_more_input() {
    let engine = engine();
    let burst: String = (0..5)
        .map(|i| format!("{{\"id\": {i}, \"entity\": {}}}\n", 3 * i))
        .collect();
    let late = "{\"id\": 5, \"entity\": 11}\n";
    let want = per_line(engine, &(burst.clone() + late));
    let got = with_server(engine, |addr| {
        let mut conn = connect(addr);
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut got = String::new();
        conn.write_all(burst.as_bytes()).unwrap();
        for _ in 0..5 {
            reader.read_line(&mut got).unwrap();
        }
        std::thread::sleep(Duration::from_millis(100));
        conn.write_all(late.as_bytes()).unwrap();
        // The connection stays open and nothing else is sent: the answer
        // must come anyway (the read times out after 30 s otherwise).
        reader.read_line(&mut got).unwrap();
        conn.shutdown(Shutdown::Write).unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "", "nothing beyond one answer per line");
        got
    });
    assert_eq!(got, want);
}

#[test]
fn three_concurrent_connections_lose_and_duplicate_nothing() {
    let engine = engine();
    // Each connection writes its 300 lines in chunks of assorted sizes so
    // bursts start and end at many offsets.
    let inputs: Vec<String> = (0..3u64)
        .map(|c| {
            (0..300u64)
                .map(|i| {
                    let id = c * 1000 + i;
                    if i % 29 == 7 {
                        format!("{{\"id\": {id}, \"entity\"\n")
                    } else {
                        format!("{{\"id\": {id}, \"entity\": {}}}\n", (i * 7 + c) % 45)
                    }
                })
                .collect()
        })
        .collect();
    let got: Vec<String> = with_server(engine, |addr| {
        std::thread::scope(|scope| {
            let clients: Vec<_> = inputs
                .iter()
                .map(|input| {
                    scope.spawn(move || {
                        let lines: Vec<&str> = input.split_inclusive('\n').collect();
                        let chunks: Vec<String> = lines
                            .chunks(37)
                            .flat_map(|c| [c[..c.len() / 3].concat(), c[c.len() / 3..].concat()])
                            .collect();
                        let parts: Vec<&str> = chunks.iter().map(String::as_str).collect();
                        exchange(addr, &parts, Duration::from_millis(1))
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        })
    });
    let mut ids = Vec::new();
    for (input, got) in inputs.iter().zip(&got) {
        assert_eq!(*got, per_line(engine, input));
        ids.extend(got.lines().map(|l| relgraph_serve::recover_id(l).unwrap()));
    }
    ids.sort_unstable();
    let sent: Vec<u64> = (0..3u64)
        .flat_map(|c| (0..300).map(move |i| c * 1000 + i))
        .collect();
    assert_eq!(ids, sent, "every request answered exactly once");
}

#[test]
fn a_line_that_is_not_utf8_ends_the_stream_after_the_lines_before_it() {
    let engine = engine();
    let ok = "{\"id\": 1, \"entity\": 2}\n";
    let mut input = ok.as_bytes().to_vec();
    input.extend_from_slice(b"{\"id\": 2, \"entity\": \xff}\n");
    input.extend_from_slice(ok.as_bytes());
    let mut out = Vec::new();
    let err = serve_stream(engine, input.as_slice(), &mut out, |_, _| {}).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(String::from_utf8(out).unwrap(), per_line(engine, ok));
}
