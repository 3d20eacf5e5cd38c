//! A line-oriented TCP front door over the serving core.
//!
//! Protocol (one session per connection):
//!
//! ```text
//! client: SUBSCRIBE <tenant-id> <query>\n
//! server: ADMITTED <tenant-id>\n            (or REJECTED <reason>\n)
//! server: EARLY <hex-key> <hex-value>\n     (zero or more, as answers surface)
//! server: FINAL <hex-key> <hex-value>\n     (the tenant's final answers)
//! server: DONE records=<n> early=<n> dlq_dead=<n> dlq_recovered=<n>\n
//! ```
//!
//! Keys and values are hex-encoded on the wire because answer keys are
//! raw bytes (little-endian ids) that may contain newlines; clients
//! decode and render however they like. `ERROR <msg>` replaces the
//! `FINAL`/`DONE` tail if the tenant's session failed. A client that
//! disconnects mid-stream is detached server-side (its seat and memory
//! leases free up).
//!
//! Binding `:0` picks an ephemeral port — the CLI prints the actual
//! address so scripts never collide on fixed ports.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use onepass_core::error::{Error, Result};

use super::server::{Server, TenantEvent, TenantHandle};

/// Every byte's two lowercase hex digits, `"00"` to `"ff"`, as `&str`s
/// cut from one 512-byte string when the program is compiled.
const HEX_PAIRS: [&str; 256] = {
    const DIGITS: &[u8; 512] = &{
        let digit = b"0123456789abcdef";
        let mut d = [0u8; 512];
        let mut i = 0;
        while i < 256 {
            d[2 * i] = digit[i >> 4];
            d[2 * i + 1] = digit[i & 0x0f];
            i += 1;
        }
        d
    };
    let mut table = [""; 256];
    let mut i = 0;
    while i < 256 {
        let (pair, _) = DIGITS.split_at(2 * i).1.split_at(2);
        table[i] = match std::str::from_utf8(pair) {
            Ok(pair) => pair,
            Err(_) => panic!("hex digits are ASCII"),
        };
        i += 1;
    }
    table
};

/// Append `bytes` hex-encoded to `out`: the one hex encoder. It runs
/// per byte of every dump value ([`crate::report::dump_pairs`]) and of
/// every wire answer, so it is a lookup in a 256-entry table of digit
/// pairs appended into the caller's buffer, with no per-byte `char`
/// pushes and no buffer of its own.
pub(crate) fn push_hex(out: &mut String, bytes: &[u8]) {
    out.reserve(2 * bytes.len());
    for &b in bytes {
        out.push_str(HEX_PAIRS[usize::from(b)]);
    }
}

/// Hex-encode bytes for the wire: `push_hex` into a fresh `String`, for
/// the line protocol's `EARLY`/`FINAL` lines.
pub fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(2 * bytes.len());
    push_hex(&mut s, bytes);
    s
}

/// Decode wire hex; `None` on malformed input.
pub fn unhex(s: &str) -> Option<Vec<u8>> {
    // `len & 1`, not `len % 2`: clippy suggests `is_multiple_of`, which
    // postdates the workspace MSRV (1.85).
    if s.len() & 1 != 0 {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

/// The accept loop plus its bound address.
pub struct Frontend {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<AtomicUsize>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl Frontend {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve
    /// subscriptions against `server` until [`Frontend::stop`].
    pub fn bind(server: Arc<Server>, addr: &str) -> Result<Frontend> {
        let listener = TcpListener::bind(addr).map_err(|e| {
            Error::Io(std::io::Error::new(
                e.kind(),
                format!("serve: cannot bind {addr}: {e}"),
            ))
        })?;
        let local_addr = listener.local_addr().map_err(Error::Io)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let conns = Arc::new(AtomicUsize::new(0));
        let conns2 = Arc::clone(&conns);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    let server = Arc::clone(&server);
                    let conns = Arc::clone(&conns2);
                    conns.fetch_add(1, Ordering::AcqRel);
                    // One thread per subscriber: the handler mostly
                    // blocks on the tenant's event channel.
                    let spawned =
                        std::thread::Builder::new()
                            .name("serve-conn".into())
                            .spawn(move || {
                                handle_conn(conn, server);
                                conns.fetch_sub(1, Ordering::AcqRel);
                            });
                    if spawned.is_err() {
                        conns2.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            })
            .expect("spawn serve accept loop");
        Ok(Frontend {
            local_addr,
            stop,
            conns,
            accept_thread: Some(accept_thread),
        })
    }

    /// Subscriber connections currently being served.
    pub fn active_conns(&self) -> usize {
        self.conns.load(Ordering::Acquire)
    }

    /// Wait (up to `timeout`) for every subscriber connection to finish
    /// writing and hang up; returns whether they all drained.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.active_conns() > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        true
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting new subscribers (existing connections drain on
    /// their own).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.stop();
    }
}

fn handle_conn(conn: TcpStream, server: Arc<Server>) {
    let Ok(peer) = conn.try_clone() else { return };
    let mut reader = BufReader::new(peer);
    let mut writer = BufWriter::new(conn);
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() {
        return;
    }
    let mut parts = line.split_whitespace();
    let handle = match (parts.next(), parts.next(), parts.next()) {
        (Some("SUBSCRIBE"), Some(tenant), Some(query)) => server.subscribe(tenant, query),
        _ => {
            let _ = writeln!(writer, "REJECTED malformed subscribe line");
            return;
        }
    };
    let handle = match handle {
        Ok(h) => h,
        Err(e) => {
            let _ = writeln!(writer, "REJECTED {e}");
            return;
        }
    };
    let _ = writeln!(writer, "ADMITTED {}", handle.id);
    let _ = writer.flush();
    // Dropping `handle` (and with it the event receiver) on any write
    // failure detaches the tenant server-side.
    let _ = pump_events(&handle, &mut writer);
}

fn pump_events(handle: &TenantHandle, w: &mut impl Write) -> std::io::Result<()> {
    let mut early = 0u64;
    loop {
        match handle.events().recv() {
            Ok(TenantEvent::Early(answers)) => {
                early += answers.len() as u64;
                for a in answers.iter() {
                    writeln!(w, "EARLY {} {}", hex(&a.key), hex(&a.value))?;
                }
                w.flush()?;
            }
            Ok(TenantEvent::Final(close)) => {
                for a in &close.answers {
                    writeln!(w, "FINAL {} {}", hex(&a.key), hex(&a.value))?;
                }
                writeln!(
                    w,
                    "DONE records={} early={} dlq_dead={} dlq_recovered={}",
                    close.records_in, early, close.dlq_dead, close.dlq_recovered
                )?;
                return w.flush();
            }
            Ok(TenantEvent::Error(e)) => {
                writeln!(w, "ERROR {e}")?;
                return w.flush();
            }
            Err(_) => {
                writeln!(w, "ERROR server closed without delivering finals")?;
                return w.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let bytes = [0x00, 0x0a, 0xff, 0x41];
        assert_eq!(hex(&bytes), "000aff41");
        let every: Vec<u8> = (0..=255).collect();
        let want: String = every.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex(&every), want);
        assert_eq!(unhex(&want).unwrap(), every);
        assert_eq!(unhex(&hex(&bytes)).unwrap(), bytes);
        assert_eq!(unhex("zz"), None);
        assert_eq!(unhex("abc"), None);
        assert_eq!(unhex("").unwrap(), Vec::<u8>::new());
    }
}
