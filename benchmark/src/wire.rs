//! The generator's side of the newline-JSON wire protocol: one
//! `TCP_NODELAY` connection, one request in flight, every read under
//! the op deadline.
//!
//! One connection on purpose. `reactor::WakePipe::drain` clears its
//! `pending` flag before it reads the pipe, so a `wake()` that lands
//! in between loses its byte and suppresses every later wake; two
//! closed-loop connections wedge the server within seconds (see
//! README.md, "Why one connection"). With the deadline below a wedge
//! is a failed op and a fresh connection, never a hang.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// An op that has not answered by now has failed.
pub const OP_DEADLINE: Duration = Duration::from_secs(5);

/// A closed-loop wire client.
pub struct Conn {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Ops that hit [`OP_DEADLINE`] (or any other socket error).
    pub timeouts: u64,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let (reader, writer) = open(addr)?;
        Ok(Conn {
            addr,
            reader,
            writer,
            timeouts: 0,
        })
    }

    /// Sends one request line and reads one reply line into `reply`
    /// (cleared first). On a socket error — a missed deadline included
    /// — the connection is replaced, because its stream may hold half
    /// a reply.
    pub fn round_trip(&mut self, line: &str, reply: &mut String) -> Result<(), String> {
        reply.clear();
        let outcome = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.reader.read_line(reply));
        match outcome {
            Ok(n) if n > 0 && reply.ends_with('\n') => Ok(()),
            Ok(_) => self.replace("server closed the connection".to_string()),
            Err(e) => self.replace(format!("no reply within the deadline: {e}")),
        }
    }

    fn replace(&mut self, why: String) -> Result<(), String> {
        self.timeouts += 1;
        match open(self.addr) {
            Ok((reader, writer)) => {
                self.reader = reader;
                self.writer = writer;
                Err(why)
            }
            Err(e) => Err(format!("{why}; reconnect failed: {e}")),
        }
    }
}

fn open(addr: SocketAddr) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect_timeout(&addr, OP_DEADLINE)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(OP_DEADLINE))?;
    stream.set_write_timeout(Some(OP_DEADLINE))?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}
