//! A minimal HTTP/1.1 keep-alive client for the benchmark's socket
//! workloads: one request at a time per connection, `Content-Length`
//! bodies only (all the server sends). A response carrying
//! `Connection: close` makes the next request reconnect.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// Largest response body the client accepts.
const MAX_BODY: usize = 256 << 20;

pub struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    request: Vec<u8>,
}

/// One response: status and body.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            request: Vec::new(),
        }
    }

    fn connect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        self.conn = Some((stream, reader));
        Ok(())
    }

    /// Send one POST and read its response.
    pub fn post(&mut self, path_and_query: &str, body: &[u8]) -> io::Result<Response> {
        self.send("POST", path_and_query, body)
    }

    /// Send one GET and read its response.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.send("GET", path, &[])
    }

    fn send(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<Response> {
        if self.conn.is_none() {
            self.connect()?;
        }
        self.request.clear();
        write!(
            self.request,
            "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.request.extend_from_slice(body);
        let (stream, reader) = self.conn.as_mut().expect("connected above");
        stream.write_all(&self.request)?;
        let (response, keep_alive) = read_response(reader)?;
        if !keep_alive {
            self.conn = None;
        }
        Ok(response)
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn read_response(reader: &mut impl BufRead) -> io::Result<(Response, bool)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before the status line"));
    }
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = 0usize;
    let mut keep_alive = true;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("malformed header"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse().map_err(|_| bad("bad Content-Length"))?;
            if length > MAX_BODY {
                return Err(bad("response body too large"));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((Response { status, body }, keep_alive))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_body_and_connection_close() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
        let (r, keep) = read_response(&mut &raw[..]).unwrap();
        assert_eq!(
            (r.status, r.body.as_slice(), keep),
            (200, &b"{}"[..], false)
        );
        let raw = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        let (r, keep) = read_response(&mut &raw[..]).unwrap();
        assert_eq!((r.status, r.body.len(), keep), (404, 0, true));
        assert!(read_response(&mut &b"HTTP/1.1 200 OK\r\n"[..]).is_err());
    }
}
