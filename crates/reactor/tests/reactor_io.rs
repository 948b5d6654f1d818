//! Reactor behavior over real loopback sockets: framing, ordered
//! completions, backpressure, oversized lines, idle timeouts, and the
//! many-idle-connections economics the crate exists for.

use reactor::{Completion, Line, Reactor, ReactorConfig, ReactorHandle, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spawns an upper-casing echo reactor: each line comes back
/// upper-cased with a newline. `shutdown!` closes after replying.
fn spawn_echo(config: ReactorConfig) -> ReactorHandle {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    Reactor::spawn(listener, config, |_ctl| {
        Arc::new(
            |_conn: u64, line: Line, completion: Completion| match line {
                Line::Complete(bytes) => {
                    let mut reply = bytes.to_ascii_uppercase();
                    reply.push(b'\n');
                    if bytes == b"shutdown!" {
                        completion.send_close(reply);
                    } else {
                        completion.send(reply);
                    }
                }
                Line::Oversized => completion.send_close(b"too long\n".to_vec()),
            },
        )
    })
    .unwrap()
}

fn connect(handle: &ReactorHandle) -> TcpStream {
    TcpStream::connect(handle.addr()).unwrap()
}

#[test]
fn echoes_lines_and_ignores_blanks() {
    let handle = spawn_echo(ReactorConfig::default());
    let mut stream = connect(&handle);
    stream.write_all(b"hello\n\n   \nworld\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "HELLO\n");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "WORLD\n", "blank lines must not consume reply slots");
    drop(stream);
    handle.stop();
}

#[test]
fn replies_are_delivered_in_request_order_despite_completion_order() {
    // The handler defers every line to a thread that completes them in
    // *reverse* arrival order; the wire must still answer in request
    // order (per-connection sequencing).
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (tx, rx) = mpsc::channel::<(Vec<u8>, Completion)>();
    let tx = std::sync::Mutex::new(tx);
    let handle = Reactor::spawn(listener, ReactorConfig::default(), move |_ctl| {
        Arc::new(move |_conn: u64, line: Line, completion: Completion| {
            if let Line::Complete(bytes) = line {
                tx.lock().unwrap().send((bytes, completion)).unwrap();
            }
        })
    })
    .unwrap();
    let resolver = std::thread::spawn(move || {
        let mut batch = Vec::new();
        while batch.len() < 3 {
            batch.push(rx.recv().unwrap());
        }
        for (bytes, completion) in batch.into_iter().rev() {
            let mut reply = bytes;
            reply.push(b'\n');
            completion.send(reply);
        }
    });
    let mut stream = connect(&handle);
    stream.write_all(b"first\nsecond\nthird\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut got = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        got.push(line.trim().to_string());
    }
    assert_eq!(
        got,
        vec!["first", "second", "third"],
        "replies must be re-ordered to request order"
    );
    resolver.join().unwrap();
    drop(stream);
    handle.stop();
}

#[test]
fn send_close_flushes_the_goodbye_then_closes() {
    let handle = spawn_echo(ReactorConfig::default());
    let mut stream = connect(&handle);
    stream.write_all(b"shutdown!\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "SHUTDOWN!\n");
    // After the goodbye the server closes: the next read sees EOF.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0);
    handle.stop();
}

#[test]
fn oversized_lines_get_one_reply_then_the_connection_closes() {
    let handle = spawn_echo(ReactorConfig::default());
    let mut stream = connect(&handle);
    // The cap's worth of bytes with no newline: reaches it mid-line.
    let blob = vec![b'x'; MAX_LINE_BYTES as usize];
    let _ = stream.write_all(&blob);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "too long\n");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "must close");
    handle.stop();
}

#[test]
fn dropping_a_completion_sends_the_abandoned_reply() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = Reactor::spawn(listener, ReactorConfig::default(), |_ctl| {
        Arc::new(|_conn: u64, _line: Line, mut completion: Completion| {
            completion.set_abandoned_reply(b"abandoned\n".to_vec());
            drop(completion);
        })
    })
    .unwrap();
    let mut stream = connect(&handle);
    stream.write_all(b"anyone there?\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "abandoned\n");
    drop(stream);
    handle.stop();
}

#[test]
fn a_slow_reader_backpressures_only_its_own_connection() {
    // One client asks for a reply far larger than the socket buffers
    // and does not read for a while; a second client must meanwhile be
    // served promptly — the reactor parks the unflushed bytes and
    // moves on.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = Reactor::spawn(listener, ReactorConfig::default(), |_ctl| {
        Arc::new(|_conn: u64, line: Line, completion: Completion| {
            if let Line::Complete(bytes) = line {
                if bytes == b"big" {
                    let mut reply = vec![b'b'; 8 * 1024 * 1024 - 1];
                    reply.push(b'\n');
                    completion.send(reply);
                } else {
                    completion.send(b"small\n".to_vec());
                }
            }
        })
    })
    .unwrap();
    let mut slow = connect(&handle);
    slow.write_all(b"big\n").unwrap();
    std::thread::sleep(Duration::from_millis(100)); // let the write jam
    let start = Instant::now();
    let mut fast = connect(&handle);
    fast.write_all(b"ping\n").unwrap();
    let mut reader = BufReader::new(fast.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "small\n");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "fast client stalled behind the slow one"
    );
    // Now drain the jammed reply fully: every byte must arrive.
    let mut slow_reader = BufReader::new(slow.try_clone().unwrap());
    let mut big = Vec::new();
    slow_reader.read_until(b'\n', &mut big).unwrap();
    assert_eq!(big.len(), 8 * 1024 * 1024);
    assert!(big.iter().take(big.len() - 1).all(|&b| b == b'b'));
    drop(slow);
    drop(fast);
    handle.stop();
}

#[test]
fn idle_connections_time_out_but_waiting_connections_do_not() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (tx, rx) = mpsc::channel::<Completion>();
    let tx = std::sync::Mutex::new(tx);
    let handle = Reactor::spawn(
        listener,
        ReactorConfig {
            idle_timeout: Duration::from_millis(200),
            ..ReactorConfig::default()
        },
        move |_ctl| {
            Arc::new(move |_conn: u64, _line: Line, completion: Completion| {
                // Park the completion: the connection is now *waiting*,
                // not idle.
                tx.lock().unwrap().send(completion).unwrap();
            })
        },
    )
    .unwrap();
    let idle = connect(&handle);
    let mut waiting = connect(&handle);
    waiting.write_all(b"work\n").unwrap();
    let parked = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    // Well past the idle timeout: the idle connection is gone, the
    // waiting one is not.
    std::thread::sleep(Duration::from_millis(600));
    let mut reader = BufReader::new(idle.try_clone().unwrap());
    let mut line = String::new();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "idle connection should have been closed"
    );
    parked.send(b"done\n".to_vec());
    let mut reader = BufReader::new(waiting.try_clone().unwrap());
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "done\n", "in-flight connection must survive idleness");
    assert!(handle.gauges().closed_idle >= 1);
    drop(waiting);
    handle.stop();
}

#[test]
fn gauges_track_hundreds_of_idle_connections_without_threads() {
    let handle = spawn_echo(ReactorConfig {
        max_connections: 512,
        ..ReactorConfig::default()
    });
    let mut conns: Vec<TcpStream> = Vec::new();
    for _ in 0..300 {
        conns.push(connect(&handle));
    }
    // One of them does real work so we know the reactor has observed
    // (accepted) everything queued before it.
    let last = conns.last_mut().unwrap();
    last.write_all(b"probe\n").unwrap();
    let mut reader = BufReader::new(last.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "PROBE\n");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let g = handle.gauges();
        if g.open == 300 && g.idle == 300 {
            break;
        }
        assert!(Instant::now() < deadline, "gauges never settled: {g:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(handle.gauges().accepted_total, 300);
    drop(conns);
    handle.stop();
}

#[test]
fn stop_drains_pending_replies_before_closing() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = Reactor::spawn(listener, ReactorConfig::default(), |ctl| {
        Arc::new(move |_conn: u64, _line: Line, completion: Completion| {
            // Reply and immediately ask the reactor to stop: the reply
            // must still reach the peer (drain-before-close).
            completion.send(b"bye\n".to_vec());
            ctl.stop();
        })
    })
    .unwrap();
    let mut stream = connect(&handle);
    stream.write_all(b"quit\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "bye\n");
    handle.join();
    // The listener is gone: connecting now fails or is reset on use.
    let mut buf = [0u8; 1];
    match TcpStream::connect(stream.peer_addr().unwrap()) {
        Err(_) => {}
        Ok(mut s) => {
            let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
            assert_ne!(
                s.read(&mut buf).map(|n| n as i64).unwrap_or(-1),
                1,
                "stopped reactor must not serve"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Registry-backed gauge transitions: the reactor publishes its gauges
// and counters onto an obs::Registry (ReactorConfig::metrics), and each
// lifecycle transition must land as an exact delta there.
// ---------------------------------------------------------------------

/// Polls the registry until `pred` holds on a snapshot (10 s cap).
fn wait_for_snapshot(
    registry: &obs::Registry,
    what: &str,
    pred: impl Fn(&obs::Snapshot) -> bool,
) -> obs::Snapshot {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = registry.snapshot();
        if pred(&snap) {
            return snap;
        }
        assert!(
            Instant::now() < deadline,
            "registry never reached: {what}\nlast snapshot: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn registry_tracks_write_blocked_through_drain() {
    let registry = obs::Registry::new();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = Reactor::spawn(
        listener,
        ReactorConfig {
            metrics: Some(registry.clone()),
            ..ReactorConfig::default()
        },
        |_ctl| {
            Arc::new(|_conn: u64, line: Line, completion: Completion| {
                if let Line::Complete(_) = line {
                    let mut reply = vec![b'b'; 8 * 1024 * 1024 - 1];
                    reply.push(b'\n');
                    completion.send(reply);
                }
            })
        },
    )
    .unwrap();
    let mut slow = connect(&handle);
    slow.write_all(b"big\n").unwrap();
    // The 8 MiB reply jams behind the unread socket: exactly this one
    // connection must show as write-blocked.
    wait_for_snapshot(&registry, "write_blocked == 1", |s| {
        s.gauge("reactor.write_blocked") == Some(1)
    });
    // Drain the reply; the gauge must return to 0 and the flush spans
    // must have landed in the stage.write histogram.
    let mut reader = BufReader::new(slow.try_clone().unwrap());
    let mut big = Vec::new();
    reader.read_until(b'\n', &mut big).unwrap();
    assert_eq!(big.len(), 8 * 1024 * 1024);
    let snap = wait_for_snapshot(&registry, "write_blocked drained", |s| {
        s.gauge("reactor.write_blocked") == Some(0)
    });
    assert!(
        snap.histo("stage.write").map(|h| h.count) > Some(0),
        "flush spans must be recorded: {snap:?}"
    );
    drop(slow);
    handle.stop();
}

#[test]
fn registry_counts_idle_timeout_culls_exactly() {
    let registry = obs::Registry::new();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = Reactor::spawn(
        listener,
        ReactorConfig {
            idle_timeout: Duration::from_millis(150),
            metrics: Some(registry.clone()),
            ..ReactorConfig::default()
        },
        |_ctl| {
            Arc::new(|_conn: u64, _line: Line, completion: Completion| {
                completion.send(b"ok\n".to_vec());
            })
        },
    )
    .unwrap();
    // One connection stays busy (periodic requests), one goes idle.
    let mut busy = connect(&handle);
    let idle = connect(&handle);
    wait_for_snapshot(&registry, "both connections open", |s| {
        s.gauge("reactor.open") == Some(2) && s.counter("reactor.accepted_total") == Some(2)
    });
    assert_eq!(registry.snapshot().counter("reactor.closed_idle"), Some(0));
    let mut reader = BufReader::new(busy.try_clone().unwrap());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        busy.write_all(b"ping\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ok\n");
        let snap = registry.snapshot();
        if snap.counter("reactor.closed_idle") == Some(1) {
            // Exactly the idle connection was culled; the busy one and
            // the lifetime totals are untouched.
            assert_eq!(snap.gauge("reactor.open"), Some(1), "{snap:?}");
            assert_eq!(snap.counter("reactor.accepted_total"), Some(2));
            break;
        }
        assert!(Instant::now() < deadline, "idle cull never counted");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(idle);
    drop(busy);
    handle.stop();
}

#[test]
fn registry_shows_deferred_accepts_at_max_connections() {
    let registry = obs::Registry::new();
    let handle = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Reactor::spawn(
            listener,
            ReactorConfig {
                max_connections: 2,
                metrics: Some(registry.clone()),
                ..ReactorConfig::default()
            },
            |_ctl| {
                Arc::new(|_conn: u64, line: Line, completion: Completion| {
                    if let Line::Complete(bytes) = line {
                        let mut reply = bytes;
                        reply.push(b'\n');
                        completion.send(reply);
                    }
                })
            },
        )
        .unwrap()
    };
    let first = connect(&handle);
    let mut second = connect(&handle);
    second.write_all(b"probe\n").unwrap();
    let mut reader = BufReader::new(second.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "probe\n");
    wait_for_snapshot(&registry, "at capacity", |s| {
        s.counter("reactor.accepted_total") == Some(2) && s.gauge("reactor.open") == Some(2)
    });
    // A third peer connects into the backlog but must NOT be accepted
    // while the reactor is at capacity: accepted_total stays put.
    let mut third = connect(&handle);
    std::thread::sleep(Duration::from_millis(200));
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("reactor.accepted_total"),
        Some(2),
        "accept must be deferred at max_connections: {snap:?}"
    );
    // Freeing a slot admits the queued peer: exactly one more accept.
    drop(first);
    third.write_all(b"hello\n").unwrap();
    let mut reader = BufReader::new(third.try_clone().unwrap());
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "hello\n", "queued peer must be served once admitted");
    let snap = wait_for_snapshot(&registry, "deferred accept admitted", |s| {
        s.counter("reactor.accepted_total") == Some(3)
    });
    assert_eq!(snap.gauge("reactor.open"), Some(2), "{snap:?}");
    drop(second);
    drop(third);
    handle.stop();
}
