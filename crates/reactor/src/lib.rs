//! # reactor — a std-only non-blocking I/O readiness loop
//!
//! One thread, many connections: the reactor owns a non-blocking
//! `TcpListener` plus every accepted `TcpStream`, multiplexes them
//! through a hand-rolled `poll(2)` loop (see [`poll`] for the vendored
//! FFI shim — no external dependencies), and drives a per-connection
//! state machine for **framed newline read/write**. An idle connection
//! costs one buffer, never a thread.
//!
//! ```text
//!                 ┌──────────────── reactor thread ────────────────┐
//!   accept ──────▶│ listener ─┐                                    │
//!                 │           ▼        ┌─ conn 1: read buf ▸ lines │
//!   poll(2) ◀────▶│  readiness loop ──▶├─ conn 2: write buf ◂ seqs │
//!                 │           ▲        └─ conn N: idle (buffer)    │
//!   wake pipe ───▶│           │                                    │
//!                 └───────────┼────────────────────────────────────┘
//!                             │ on_line(conn, line, Completion)
//!                             ▼
//!                  handler (parse / dispatch to worker threads)
//!                             │ Completion::send(bytes)  [any thread]
//!                             └──────▶ completion queue + wake ─────▶
//! ```
//!
//! ## The contract
//!
//! * Each complete `\n`-terminated, non-blank line becomes one
//!   [`LineHandler::on_line`] call carrying a [`Completion`] — a
//!   one-shot, `Send` reply slot. The handler may resolve it inline or
//!   hand it to another thread; the reactor writes replies back **in
//!   per-connection request order** regardless of completion order
//!   (each line gets a sequence number; out-of-order completions park
//!   until their turn).
//! * Writes never block the loop: unflushed bytes sit in a
//!   per-connection buffer registered for `POLLOUT` (backpressure); a
//!   slow reader delays only its own connection.
//! * A line longer than [`MAX_LINE_BYTES`] yields one
//!   [`Line::Oversized`] event; input from that connection is then
//!   discarded (there is no way to resynchronize mid-line), and the
//!   handler's reply — typically an error — is flushed before close.
//! * Connections idle longer than [`ReactorConfig::idle_timeout`] with
//!   no in-flight request are closed. A connection waiting on a
//!   completion is never idle-closed.
//! * [`ReactorCtl::stop`] stops accepting, waits (bounded by
//!   [`DRAIN_GRACE`]) for outstanding completions and
//!   write buffers to drain, then closes everything — so a final
//!   goodbye line always reaches the peer.
//! * Dropping a [`Completion`] unresolved answers its line with the
//!   configured abandoned reply (or closes the connection when none
//!   was set) — a reply slot can never leak and wedge the ordering
//!   window.

pub mod poll;

use poll::{PollFd, WakePipe, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest accepted line in bytes; longer input yields
/// [`Line::Oversized`] and the connection stops reading. A client that
/// streams gigabytes without a newline cannot exhaust server memory.
pub const MAX_LINE_BYTES: u64 = 8 * 1024 * 1024;

/// On [`ReactorCtl::stop`], how long to keep flushing outstanding
/// replies before force-closing.
pub const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// Reactor knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Close connections idle (no buffered input/output, no in-flight
    /// request) longer than this.
    pub idle_timeout: Duration,
    /// Most simultaneous connections; beyond this the listener is left
    /// unpolled (pending peers queue in the accept backlog) until a
    /// slot frees up.
    pub max_connections: usize,
    /// Observability registry to publish into. When set, the loop
    /// mirrors its occupancy gauges (`reactor.open`, `reactor.idle`,
    /// `reactor.read_blocked`, `reactor.write_blocked`), its lifetime
    /// counters (`reactor.accepted_total`, `reactor.closed_idle`), and
    /// the `stage.write` flush-latency histogram onto the registry once
    /// per loop iteration. `None` costs nothing.
    pub metrics: Option<obs::Registry>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            idle_timeout: Duration::from_secs(300),
            max_connections: 1024,
            metrics: None,
        }
    }
}

/// One framed input event.
#[derive(Debug)]
pub enum Line {
    /// A complete line, without its trailing newline. Blank
    /// (whitespace-only) lines are filtered out by the reactor and
    /// never reach the handler.
    Complete(Vec<u8>),
    /// The connection exceeded [`MAX_LINE_BYTES`]
    /// without a newline. Reply (the connection closes after the reply
    /// flushes) — further input is discarded.
    Oversized,
}

/// The application callback: one call per framed line, invoked on the
/// reactor thread. Heavy work must be handed off — everything in here
/// stalls every connection.
pub trait LineHandler: Send + Sync {
    /// Handles one line from connection `conn`. The reply goes through
    /// `completion`, now or later, from any thread.
    fn on_line(&self, conn: u64, line: Line, completion: Completion);
}

impl<F: Fn(u64, Line, Completion) + Send + Sync> LineHandler for F {
    fn on_line(&self, conn: u64, line: Line, completion: Completion) {
        self(conn, line, completion)
    }
}

/// Occupancy gauges, updated by the reactor once per loop iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorGauges {
    /// Connections currently open.
    pub open: u64,
    /// Open connections with nothing buffered and nothing in flight.
    pub idle: u64,
    /// Connections holding a partial (not yet newline-terminated)
    /// input line.
    pub read_blocked: u64,
    /// Connections with unflushed output (peer reading slowly).
    pub write_blocked: u64,
    /// Connections accepted since startup.
    pub accepted_total: u64,
    /// Connections closed by the idle timeout since startup.
    pub closed_idle: u64,
}

/// A queued reply: resolved completion waiting to be slotted into its
/// connection's ordered write stream.
struct Reply {
    token: u64,
    seq: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// State shared between the reactor thread, [`ReactorCtl`] clones, and
/// outstanding [`Completion`]s.
struct CtlShared {
    wake: WakePipe,
    completions: Mutex<Vec<Reply>>,
    stopping: AtomicBool,
    open: AtomicU64,
    idle: AtomicU64,
    read_blocked: AtomicU64,
    write_blocked: AtomicU64,
    accepted_total: AtomicU64,
    closed_idle: AtomicU64,
}

impl CtlShared {
    fn push_reply(&self, reply: Reply) {
        self.completions
            .lock()
            .expect("reactor completions poisoned")
            .push(reply);
        self.wake.wake();
    }
}

/// Cloneable control handle: stop the loop, read the gauges.
#[derive(Clone)]
pub struct ReactorCtl {
    shared: Arc<CtlShared>,
}

impl ReactorCtl {
    /// Initiates shutdown: stop accepting, drain outstanding replies
    /// (bounded by [`DRAIN_GRACE`]), close every
    /// connection, exit the loop. Idempotent.
    pub fn stop(&self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.wake.wake();
    }

    /// Snapshot of the occupancy gauges.
    pub fn gauges(&self) -> ReactorGauges {
        let s = &self.shared;
        ReactorGauges {
            open: s.open.load(Ordering::SeqCst),
            idle: s.idle.load(Ordering::SeqCst),
            read_blocked: s.read_blocked.load(Ordering::SeqCst),
            write_blocked: s.write_blocked.load(Ordering::SeqCst),
            accepted_total: s.accepted_total.load(Ordering::SeqCst),
            closed_idle: s.closed_idle.load(Ordering::SeqCst),
        }
    }
}

/// A one-shot reply slot for one framed line. `Send` — resolve it from
/// any thread. Dropping it unresolved sends the abandoned reply set
/// via [`Completion::set_abandoned_reply`], or closes the connection
/// when none was set.
pub struct Completion {
    shared: Arc<CtlShared>,
    token: u64,
    seq: u64,
    resolved: bool,
    abandoned: Option<Vec<u8>>,
}

impl Completion {
    /// Replies with `bytes` (the application supplies any trailing
    /// newline) and keeps the connection open.
    pub fn send(mut self, bytes: Vec<u8>) {
        self.resolve(bytes, false);
    }

    /// Replies with `bytes`, then closes the connection once the reply
    /// has flushed — the goodbye path.
    pub fn send_close(mut self, bytes: Vec<u8>) {
        self.resolve(bytes, true);
    }

    /// Sets the reply to send if this completion is dropped
    /// unresolved (e.g. its owner shut down mid-job).
    pub fn set_abandoned_reply(&mut self, bytes: Vec<u8>) {
        self.abandoned = Some(bytes);
    }

    fn resolve(&mut self, bytes: Vec<u8>, close: bool) {
        if self.resolved {
            return;
        }
        self.resolved = true;
        self.shared.push_reply(Reply {
            token: self.token,
            seq: self.seq,
            bytes,
            close,
        });
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if !self.resolved {
            match self.abandoned.take() {
                Some(bytes) => self.resolve(bytes, false),
                // No stand-in reply: the slot must still resolve or the
                // connection's ordering window wedges — close it.
                None => self.resolve(Vec::new(), true),
            }
        }
    }
}

/// Owner of a running reactor thread.
pub struct ReactorHandle {
    ctl: ReactorCtl,
    addr: SocketAddr,
    thread: JoinHandle<()>,
}

impl ReactorHandle {
    /// The listener's bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable control handle.
    pub fn ctl(&self) -> ReactorCtl {
        self.ctl.clone()
    }

    /// Snapshot of the occupancy gauges.
    pub fn gauges(&self) -> ReactorGauges {
        self.ctl.gauges()
    }

    /// Requests shutdown and waits for the loop to exit.
    pub fn stop(self) {
        self.ctl.stop();
        let _ = self.thread.join();
    }

    /// Waits for the loop to exit (someone else calls
    /// [`ReactorCtl::stop`]).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// The reactor entry point.
pub struct Reactor;

impl Reactor {
    /// Takes ownership of `listener`, switches it non-blocking, and
    /// starts the readiness loop on its own thread. `make_handler`
    /// receives the loop's [`ReactorCtl`] (so the handler can stop the
    /// reactor or report its gauges) and returns the line handler.
    ///
    /// # Errors
    ///
    /// Socket/pipe/thread-spawn failures.
    pub fn spawn<F>(
        listener: TcpListener,
        config: ReactorConfig,
        make_handler: F,
    ) -> io::Result<ReactorHandle>
    where
        F: FnOnce(ReactorCtl) -> Arc<dyn LineHandler>,
    {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(CtlShared {
            wake: WakePipe::new()?,
            completions: Mutex::new(Vec::new()),
            stopping: AtomicBool::new(false),
            open: AtomicU64::new(0),
            idle: AtomicU64::new(0),
            read_blocked: AtomicU64::new(0),
            write_blocked: AtomicU64::new(0),
            accepted_total: AtomicU64::new(0),
            closed_idle: AtomicU64::new(0),
        });
        let ctl = ReactorCtl {
            shared: shared.clone(),
        };
        let handler = make_handler(ctl.clone());
        let thread = std::thread::Builder::new()
            .name("reactor-io".to_string())
            .spawn(move || run_loop(listener, config, shared, handler))?;
        Ok(ReactorHandle { ctl, addr, thread })
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Accumulated input not yet framed into lines.
    read_buf: Vec<u8>,
    /// How far `read_buf` has been scanned for a newline.
    scanned: usize,
    /// Unflushed output.
    write_buf: Vec<u8>,
    /// Sequence number the next framed line will get.
    next_seq: u64,
    /// Sequence number whose reply writes next (per-connection order).
    next_write: u64,
    /// Replies that completed out of order, parked until their turn.
    parked: BTreeMap<u64, Reply>,
    /// Lines handed to the handler whose completions are outstanding.
    in_flight: u64,
    /// Input is discarded (oversized line or close-after-reply).
    reject_input: bool,
    /// Close once `write_buf` drains.
    close_when_flushed: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            scanned: 0,
            write_buf: Vec::new(),
            next_seq: 0,
            next_write: 0,
            parked: BTreeMap::new(),
            in_flight: 0,
            reject_input: false,
            close_when_flushed: false,
            last_activity: Instant::now(),
        }
    }

    /// Whether the connection has no buffered work in either direction.
    fn is_quiescent(&self) -> bool {
        self.write_buf.is_empty() && self.in_flight == 0 && self.parked.is_empty()
    }

    /// Moves every reply whose turn has come into the write buffer.
    fn promote_parked(&mut self) {
        while let Some(reply) = self.parked.remove(&self.next_write) {
            self.next_write += 1;
            self.in_flight = self.in_flight.saturating_sub(1);
            self.write_buf.extend_from_slice(&reply.bytes);
            if reply.close {
                self.close_when_flushed = true;
                self.reject_input = true;
            }
        }
    }

    /// Flushes as much of the write buffer as the socket accepts.
    /// Returns `false` when the connection is dead.
    fn try_write(&mut self) -> bool {
        while !self.write_buf.is_empty() {
            match self.stream.write(&self.write_buf) {
                Ok(0) => return false,
                Ok(n) => {
                    self.write_buf.drain(..n);
                    self.last_activity = Instant::now();
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }
}

/// Registry handles the loop publishes into, resolved once at startup
/// (see [`ReactorConfig::metrics`]). The gauges mirror the `CtlShared`
/// atomics; the monotonic counters publish deltas so registry restarts
/// of the surrounding service never double-count.
struct LoopObs {
    open: obs::Gauge,
    idle: obs::Gauge,
    read_blocked: obs::Gauge,
    write_blocked: obs::Gauge,
    accepted_total: obs::Counter,
    closed_idle: obs::Counter,
    write_ns: obs::Histo,
    published_accepted: u64,
    published_closed_idle: u64,
}

impl LoopObs {
    fn resolve(registry: &obs::Registry) -> LoopObs {
        LoopObs {
            open: registry.gauge("reactor.open"),
            idle: registry.gauge("reactor.idle"),
            read_blocked: registry.gauge("reactor.read_blocked"),
            write_blocked: registry.gauge("reactor.write_blocked"),
            accepted_total: registry.counter("reactor.accepted_total"),
            closed_idle: registry.counter("reactor.closed_idle"),
            write_ns: registry.histo("stage.write"),
            published_accepted: 0,
            published_closed_idle: 0,
        }
    }

    /// Mirrors the shared gauge atomics onto the registry.
    fn publish(&mut self, shared: &CtlShared) {
        self.open.set(shared.open.load(Ordering::SeqCst));
        self.idle.set(shared.idle.load(Ordering::SeqCst));
        self.read_blocked
            .set(shared.read_blocked.load(Ordering::SeqCst));
        self.write_blocked
            .set(shared.write_blocked.load(Ordering::SeqCst));
        let accepted = shared.accepted_total.load(Ordering::SeqCst);
        self.accepted_total.add(accepted - self.published_accepted);
        self.published_accepted = accepted;
        let closed = shared.closed_idle.load(Ordering::SeqCst);
        self.closed_idle.add(closed - self.published_closed_idle);
        self.published_closed_idle = closed;
    }
}

/// [`Conn::try_write`] with the flush timed into `stage.write` when a
/// registry is wired (only attempted flushes are recorded — an empty
/// buffer never reaches here).
fn timed_write(conn: &mut Conn, loop_obs: &Option<LoopObs>) -> bool {
    match loop_obs {
        Some(o) => {
            let _span = obs::Span::enter(&o.write_ns);
            conn.try_write()
        }
        None => conn.try_write(),
    }
}

fn run_loop(
    listener: TcpListener,
    config: ReactorConfig,
    shared: Arc<CtlShared>,
    handler: Arc<dyn LineHandler>,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut stop_deadline: Option<Instant> = None;
    let mut scratch = vec![0u8; 64 * 1024];
    let mut loop_obs = config.metrics.as_ref().map(LoopObs::resolve);

    loop {
        let stopping = shared.stopping.load(Ordering::SeqCst);
        if stopping {
            let deadline = *stop_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
            let drained = conns.values().all(Conn::is_quiescent)
                && shared
                    .completions
                    .lock()
                    .expect("reactor completions poisoned")
                    .is_empty();
            if drained || Instant::now() >= deadline {
                break;
            }
        }

        // Build the poll set: wake pipe, listener (unless stopping or
        // at capacity), then one slot per connection.
        let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len() + 2);
        fds.push(shared.wake.poll_fd());
        let poll_listener = !stopping && conns.len() < config.max_connections;
        if poll_listener {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        let conn_base = fds.len();
        let mut order: Vec<u64> = Vec::with_capacity(conns.len());
        for (&token, conn) in &conns {
            let mut events = 0i16;
            if !conn.reject_input && !stopping {
                events |= POLLIN;
            }
            if !conn.write_buf.is_empty() {
                events |= POLLOUT;
            }
            // A fully passive connection (input rejected, nothing to
            // write — just waiting on a completion) is parked with a
            // negative fd, which poll(2) ignores: polling it with zero
            // events would still surface level-triggered POLLHUP every
            // iteration and spin the loop.
            let fd = if events == 0 {
                -1
            } else {
                conn.stream.as_raw_fd()
            };
            fds.push(PollFd::new(fd, events));
            order.push(token);
        }

        let timeout_ms = poll_timeout(&conns, &config, stopping);
        if poll::poll_fds(&mut fds, timeout_ms).is_err() {
            // Only unrecoverable poll errors land here (EINTR is
            // retried inside); without readiness there is no loop.
            break;
        }

        // 1. Wake pipe: drain it, then sweep the completion queue.
        if fds[0].revents & POLLIN != 0 {
            shared.wake.drain();
        }
        let replies: Vec<Reply> = std::mem::take(
            &mut *shared
                .completions
                .lock()
                .expect("reactor completions poisoned"),
        );
        for reply in replies {
            let (token, seq) = (reply.token, reply.seq);
            if let Some(conn) = conns.get_mut(&token) {
                conn.parked.insert(seq, reply);
            }
            // Replies for already-closed connections are dropped.
        }

        // 2. New connections.
        if poll_listener && fds[1].revents & POLLIN != 0 {
            accept_ready(&listener, &config, &shared, &mut conns, &mut next_token);
        }

        // 3. Per-connection readiness.
        let mut dead: Vec<u64> = Vec::new();
        for (i, &token) in order.iter().enumerate() {
            let revents = fds[conn_base + i].revents;
            if revents == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if revents & (POLLERR | POLLNVAL) != 0 {
                dead.push(token);
                continue;
            }
            if revents & POLLIN != 0
                && !read_and_frame(conn, token, &shared, &handler, &mut scratch)
            {
                // Peer closed its write half (or the socket failed).
                // Keep the connection only if replies are still owed —
                // they may be mid-completion on a worker thread.
                conn.reject_input = true;
                if conn.is_quiescent() {
                    dead.push(token);
                    continue;
                }
                conn.close_when_flushed = true;
            }
            if revents & POLLHUP != 0 && conn.is_quiescent() {
                dead.push(token);
                continue;
            }
            if revents & POLLOUT != 0 && !timed_write(conn, &loop_obs) {
                dead.push(token);
            }
        }

        // 4. Slot newly completed replies into their write streams and
        // flush opportunistically (most replies go out without ever
        // registering POLLOUT).
        for (&token, conn) in conns.iter_mut() {
            if !conn.parked.is_empty() {
                conn.promote_parked();
            }
            if !conn.write_buf.is_empty() && !timed_write(conn, &loop_obs) {
                dead.push(token);
                continue;
            }
            if conn.close_when_flushed && conn.write_buf.is_empty() && conn.in_flight == 0 {
                dead.push(token);
            }
        }

        // 5. Idle sweep.
        if !stopping {
            let now = Instant::now();
            for (&token, conn) in &conns {
                if conn.is_quiescent()
                    && !conn.close_when_flushed
                    && now.duration_since(conn.last_activity) >= config.idle_timeout
                {
                    dead.push(token);
                    shared.closed_idle.fetch_add(1, Ordering::SeqCst);
                }
            }
        }

        for token in dead {
            conns.remove(&token);
        }

        publish_gauges(&shared, &conns);
        if let Some(o) = loop_obs.as_mut() {
            o.publish(&shared);
        }
    }

    // Final flush already happened in the drain loop; just close.
    conns.clear();
    publish_gauges(&shared, &conns);
    if let Some(o) = loop_obs.as_mut() {
        o.publish(&shared);
    }
}

fn poll_timeout(conns: &HashMap<u64, Conn>, config: &ReactorConfig, stopping: bool) -> i32 {
    if stopping {
        return 20;
    }
    let now = Instant::now();
    let next_deadline = conns
        .values()
        .filter(|c| c.is_quiescent() && !c.close_when_flushed)
        .map(|c| c.last_activity + config.idle_timeout)
        .min();
    match next_deadline {
        None => -1,
        Some(deadline) => {
            let remaining = deadline.saturating_duration_since(now).as_millis();
            remaining.min(i32::MAX as u128) as i32
        }
    }
}

fn accept_ready(
    listener: &TcpListener,
    config: &ReactorConfig,
    shared: &CtlShared,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    while conns.len() < config.max_connections {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let token = *next_token;
                *next_token += 1;
                conns.insert(token, Conn::new(stream));
                shared.accepted_total.fetch_add(1, Ordering::SeqCst);
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Reads everything available on `conn`, framing complete lines into
/// handler calls. Returns `false` when the peer closed or the socket
/// died.
fn read_and_frame(
    conn: &mut Conn,
    token: u64,
    shared: &Arc<CtlShared>,
    handler: &Arc<dyn LineHandler>,
    scratch: &mut [u8],
) -> bool {
    let mut alive = true;
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                alive = false;
                break;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&scratch[..n]);
                conn.last_activity = Instant::now();
                if n < scratch.len() {
                    break;
                }
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                alive = false;
                break;
            }
        }
    }

    // Frame complete lines.
    while !conn.reject_input {
        let Some(pos) = conn.read_buf[conn.scanned..]
            .iter()
            .position(|&b| b == b'\n')
        else {
            conn.scanned = conn.read_buf.len();
            break;
        };
        let end = conn.scanned + pos;
        let mut line: Vec<u8> = conn.read_buf.drain(..=end).collect();
        conn.scanned = 0;
        line.pop(); // the newline
        if line.iter().all(u8::is_ascii_whitespace) {
            continue; // blank keep-alive line: no reply slot
        }
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.in_flight += 1;
        handler.on_line(
            token,
            Line::Complete(line),
            Completion {
                shared: shared.clone(),
                token,
                seq,
                resolved: false,
                abandoned: None,
            },
        );
    }

    // A partial line past the cap can never complete — hand the
    // handler one Oversized event and discard input from here on.
    if !conn.reject_input && conn.read_buf.len() as u64 >= MAX_LINE_BYTES {
        conn.reject_input = true;
        conn.read_buf = Vec::new();
        conn.scanned = 0;
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.in_flight += 1;
        handler.on_line(
            token,
            Line::Oversized,
            Completion {
                shared: shared.clone(),
                token,
                seq,
                resolved: false,
                abandoned: None,
            },
        );
    }
    if conn.reject_input {
        conn.read_buf = Vec::new();
        conn.scanned = 0;
    }
    alive
}

fn publish_gauges(shared: &CtlShared, conns: &HashMap<u64, Conn>) {
    let open = conns.len() as u64;
    let idle = conns
        .values()
        .filter(|c| c.is_quiescent() && c.read_buf.is_empty())
        .count() as u64;
    let read_blocked = conns.values().filter(|c| !c.read_buf.is_empty()).count() as u64;
    let write_blocked = conns.values().filter(|c| !c.write_buf.is_empty()).count() as u64;
    shared.open.store(open, Ordering::SeqCst);
    shared.idle.store(idle, Ordering::SeqCst);
    shared.read_blocked.store(read_blocked, Ordering::SeqCst);
    shared.write_blocked.store(write_blocked, Ordering::SeqCst);
}
