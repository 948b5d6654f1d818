//! The vendored `poll(2)` shim: the only FFI surface in the workspace's
//! serving stack.
//!
//! The reactor needs exactly three kernel facilities that `std` does
//! not expose: readiness multiplexing over many descriptors
//! (`poll(2)`), a self-wakeup channel that a non-reactor thread can
//! ping (`pipe(2)`), and raw reads/writes on that pipe. Everything
//! else — non-blocking sockets, accept, socket reads/writes — goes
//! through `std::net`. Declaring these five libc symbols directly
//! keeps the crate dependency-free, consistent with the workspace's
//! vendored-shim policy.
//!
//! The wake pipe is deliberately *blocking* on both ends, which sounds
//! backwards for a non-blocking reactor but is safe by construction:
//!
//! * the write side is guarded by an atomic `pending` flag that only
//!   the drainer clears, and only after it has emptied the pipe, so at
//!   most **one** byte is ever outstanding — a write can never fill
//!   the pipe and block the waker;
//! * the read side is only drained after `poll` reported `POLLIN`, so
//!   a read can never block the reactor.

use std::ffi::{c_int, c_void};
use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};

/// `poll` readiness flag: data available to read.
pub const POLLIN: i16 = 0x001;
/// `poll` readiness flag: writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// `poll` result flag: error condition on the descriptor.
pub const POLLERR: i16 = 0x008;
/// `poll` result flag: peer hung up.
pub const POLLHUP: i16 = 0x010;
/// `poll` result flag: the descriptor was not open.
pub const POLLNVAL: i16 = 0x020;

/// One `struct pollfd` as `poll(2)` expects it.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The descriptor to watch.
    pub fd: c_int,
    /// Requested events (`POLLIN` / `POLLOUT`).
    pub events: i16,
    /// Kernel-reported events, valid after [`poll_fds`] returns.
    pub revents: i16,
}

impl PollFd {
    /// A watch on `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

// `nfds_t` is `unsigned long` on Linux and `unsigned int` on the BSDs
// (including macOS).
#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    fn pipe(fds: *mut c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

/// Waits for readiness on `fds`. `timeout_ms < 0` blocks until an
/// event; `0` polls. `EINTR` is retried internally, so a signal can
/// never abort the reactor loop.
///
/// # Errors
///
/// Any `poll(2)` failure other than `EINTR`.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// The reactor's self-wakeup channel: any thread may [`WakePipe::wake`]
/// to make a blocked [`poll_fds`] return. The `pending` flag collapses
/// wake storms to a single pipe byte (see the module docs for why the
/// blocking pipe is safe).
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
    pending: AtomicBool,
}

impl WakePipe {
    /// A fresh pipe pair.
    ///
    /// # Errors
    ///
    /// Propagates `pipe(2)` failure (descriptor exhaustion).
    pub fn new() -> io::Result<WakePipe> {
        let mut fds: [c_int; 2] = [0; 2];
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
            pending: AtomicBool::new(false),
        })
    }

    /// The descriptor the reactor includes in its poll set (`POLLIN`).
    pub fn poll_fd(&self) -> PollFd {
        PollFd::new(self.read_fd, POLLIN)
    }

    /// Makes the next (or current) [`poll_fds`] call return. Coalesces
    /// concurrent wakes: only the first writer since the last
    /// [`WakePipe::drain`] touches the pipe.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            let byte = [1u8];
            let _ = unsafe { write(self.write_fd, byte.as_ptr().cast::<c_void>(), 1) };
        }
    }

    /// Consumes the pending wake byte. Call only after `poll` reported
    /// `POLLIN` on [`WakePipe::poll_fd`], and sweep the work queue
    /// **after** it returns.
    ///
    /// Read first, clear `pending` after. Wakers publish their work
    /// item (under the queue's lock) *before* they call
    /// [`WakePipe::wake`]. Between two clears, the first waker to swap
    /// reads `false` and writes the byte; every later one reads `true`
    /// and skips the write. That byte makes `poll` return, so for all
    /// of them a drain — this read, the store, the caller's sweep — is
    /// still to come, and the pipe is empty again before the flag is.
    ///
    /// Happens-before for a waker that *skipped* (the second waker):
    /// its swap precedes the store below in the modification order of
    /// `pending`. Its push is sequenced before its swap, the sweep
    /// after the store. Had the sweep locked the queue before the push
    /// did, the store would happen-before the swap (store → sweep's
    /// unlock → push's lock → swap) and the swap would have read
    /// `false`. So the push locked first, and this drain's sweep sees
    /// the item.
    ///
    /// Clearing the flag *before* the read — as this function once did
    /// — lets a second waker read `false` in between and write a byte
    /// that the same `read` swallows: `pending` stays `true` over an
    /// empty pipe, and every later wake is coalesced away.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        let _ = unsafe { read(self.read_fd, buf.as_mut_ptr().cast::<c_void>(), buf.len()) };
        self.pending.store(false, Ordering::SeqCst);
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_makes_poll_return_and_drain_resets() {
        let pipe = WakePipe::new().unwrap();
        let mut fds = [pipe.poll_fd()];
        // Nothing pending: a zero-timeout poll sees no readiness.
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0);
        pipe.wake();
        pipe.wake(); // coalesced: still one byte
        let mut fds = [pipe.poll_fd()];
        assert_eq!(poll_fds(&mut fds, 1_000).unwrap(), 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
        pipe.drain();
        let mut fds = [pipe.poll_fd()];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0);
    }

    #[test]
    fn two_wakers_racing_one_drainer_never_lose_a_wakeup() {
        // Two threads wake as fast as they can while this one runs
        // poll → drain rounds. If a drain ever leaves `pending` set
        // over an empty pipe, every later wake is coalesced away: a
        // round's poll times out, and so does the final one.
        const ROUNDS: usize = 100_000;
        let pipe = std::sync::Arc::new(WakePipe::new().unwrap());
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let wakers: Vec<_> = (0..2)
            .map(|_| {
                let (pipe, stop) = (pipe.clone(), stop.clone());
                std::thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        pipe.wake();
                    }
                })
            })
            .collect();
        let mut rounds = 0;
        while rounds < ROUNDS {
            let mut fds = [pipe.poll_fd()];
            if poll_fds(&mut fds, 1_000).unwrap() == 0 {
                break; // wedged; the final wake below shows it
            }
            pipe.drain();
            rounds += 1;
        }
        stop.store(true, Ordering::SeqCst);
        for waker in wakers {
            waker.join().unwrap();
        }
        // Quiesce: consume what the wakers' last calls left behind.
        let mut fds = [pipe.poll_fd()];
        if poll_fds(&mut fds, 0).unwrap() == 1 {
            pipe.drain();
        }
        pipe.wake();
        let mut fds = [pipe.poll_fd()];
        assert_eq!(
            poll_fds(&mut fds, 1_000).unwrap(),
            1,
            "a wake was lost after {rounds} wake/drain rounds"
        );
        assert_eq!(rounds, ROUNDS);
    }

    #[test]
    fn cross_thread_wake_unblocks_a_sleeping_poll() {
        let pipe = std::sync::Arc::new(WakePipe::new().unwrap());
        let waker = pipe.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            waker.wake();
        });
        let mut fds = [pipe.poll_fd()];
        let start = std::time::Instant::now();
        assert_eq!(poll_fds(&mut fds, 10_000).unwrap(), 1);
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
        handle.join().unwrap();
    }
}
