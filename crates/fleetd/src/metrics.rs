//! Scrapeable metrics endpoint over the global [`obs`] registry.
//!
//! A resident service is only operable if its counters are reachable
//! from outside the process. [`MetricsServer`] binds a loopback TCP
//! listener and serves the registry's Prometheus text rendering
//! ([`obs::MetricsReport::to_prometheus_text`]) at `GET /metrics`, one
//! short-lived connection per scrape — the standard pull model, sized
//! for a per-host scraper, not the public internet.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default per-connection read timeout of the accept loop.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Why serving one scrape connection failed.
#[derive(Debug)]
pub enum ServeError {
    /// The client connected but sent no complete request within the
    /// read timeout — the slow-loris shape that used to wedge the
    /// single-threaded accept loop forever.
    Timeout,
    /// Any other socket failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Timeout => write!(f, "client sent no request within the read timeout"),
            ServeError::Io(e) => write!(f, "scrape connection failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ServeError::Timeout,
            _ => ServeError::Io(e),
        }
    }
}

/// A background thread serving `GET /metrics` on a loopback port.
///
/// # Examples
///
/// ```
/// obs::enable();
/// obs::counter_add("demo.scrape.hits", 1);
/// let server = fleetd::MetricsServer::bind().unwrap();
/// let body = fleetd::MetricsServer::scrape(server.addr()).unwrap();
/// assert!(body.contains("demo_scrape_hits"));
/// server.shutdown();
/// obs::disable();
/// ```
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `127.0.0.1:0` (an OS-assigned free port) and starts
    /// serving scrapes on a background thread, with the default
    /// 2-second read timeout per connection.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (e.g. no loopback available).
    pub fn bind() -> std::io::Result<MetricsServer> {
        Self::bind_with_read_timeout(DEFAULT_READ_TIMEOUT)
    }

    /// [`bind`](Self::bind) with an explicit per-connection read
    /// timeout: a client that connects and never sends a complete
    /// request is dropped with [`ServeError::Timeout`] after
    /// `read_timeout` instead of wedging the single-threaded accept
    /// loop forever. Timed-out connections are counted on the
    /// `fleetd.scrape_timeouts` obs counter.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with_read_timeout(read_timeout: Duration) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    if let Err(ServeError::Timeout) = serve_one(stream, read_timeout) {
                        obs::counter_add("fleetd.scrape_timeouts", 1);
                    }
                }
            }
        });
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound loopback address (`curl http://<addr>/metrics`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server and joins its thread. Called on drop as well;
    /// explicit shutdown just surfaces it in the control flow.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }

    /// One-shot client: fetches `GET /metrics` from `addr` and returns
    /// the body. This is what an external scraper (or the tests) do.
    ///
    /// # Errors
    ///
    /// Connection/read failures, or a non-200 response status.
    pub fn scrape(addr: SocketAddr) -> std::io::Result<String> {
        let mut conn = TcpStream::connect(addr)?;
        write!(
            conn,
            "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
        )?;
        let mut reader = BufReader::new(conn);
        let mut status = String::new();
        reader.read_line(&mut status)?;
        if !status.starts_with("HTTP/1.1 200") {
            return Err(std::io::Error::other(format!(
                "scrape failed: {}",
                status.trim_end()
            )));
        }
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            if line == "\r\n" || line.is_empty() {
                break;
            }
        }
        let mut body = String::new();
        std::io::Read::read_to_string(&mut reader, &mut body)?;
        Ok(body)
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_one(stream: TcpStream, read_timeout: Duration) -> Result<(), ServeError> {
    // A zero Duration would mean "no timeout" to the OS — clamp to the
    // smallest effective value instead so the loop stays unwedgeable.
    stream.set_read_timeout(Some(read_timeout.max(Duration::from_millis(1))))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the header block: closing with unread bytes pending would
    // RST the connection under the client's feet.
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        if line == "\r\n" || line.is_empty() {
            break;
        }
    }
    let mut stream = reader.into_inner();
    let (status, body) = if request_line.starts_with("GET /metrics ") {
        ("200 OK", obs::snapshot().to_prometheus_text())
    } else {
        (
            "404 Not Found",
            String::from("only GET /metrics is served\n"),
        )
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    Ok(())
}
