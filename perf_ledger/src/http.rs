//! The benchmark's own blocking HTTP/1.1 client: one keep-alive
//! connection, `Content-Length` bodies only. It is deliberately not
//! `noc_svc::client`, so a change to the service's client code cannot
//! move the instrument that measures the service.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One answer: status code and body bytes.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// A keep-alive connection to the service.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.send(&request_bytes("GET", path, b""))
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<Reply> {
        self.send(&request_bytes("POST", path, body))
    }

    /// Writes one complete request and reads its whole answer.
    pub fn send(&mut self, wire: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(wire)?;
        self.buf.clear();
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let (status, len) = parse_head(&self.buf[..head_end])?;
                let total = head_end + 4 + len;
                while self.buf.len() < total {
                    self.fill(&mut chunk)?;
                }
                return Ok(Reply {
                    status,
                    body: self.buf[head_end + 4..total].to_vec(),
                });
            }
            self.fill(&mut chunk)?;
        }
    }

    fn fill(&mut self, chunk: &mut [u8]) -> io::Result<()> {
        match self.stream.read(chunk)? {
            0 => Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed")),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

/// The exact bytes a request puts on the wire.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: perf-ledger\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let bad = |what: &str| io::Error::new(ErrorKind::InvalidData, what.to_owned());
    let text = std::str::from_utf8(head).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.trim().parse())
        .ok_or_else(|| bad("response without Content-Length"))?
        .map_err(|_| bad("bad Content-Length"))?;
    Ok((status, len))
}
