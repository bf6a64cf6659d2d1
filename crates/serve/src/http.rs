//! Minimal HTTP/1.1 framing — std-only, just enough for the forecast
//! wire protocol: request-line + headers + `Content-Length` bodies,
//! keep-alive by default, no chunked encoding.

use std::io::{BufRead, Read, Write};

/// Largest accepted request body (guards the server against a hostile
/// Content-Length; 16 MiB holds a ~1.4M-value history payload).
pub const MAX_BODY: usize = 16 << 20;

/// Longest accepted request line or header line, CRLF included.
pub const MAX_LINE: usize = 8 << 10;

/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 100;

/// One parsed request.
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string included.
    pub path: String,
    /// Raw body bytes (empty without a Content-Length).
    pub body: Vec<u8>,
    /// Client asked to close after this exchange.
    pub close: bool,
}

/// Reads one request off the stream. `Ok(None)` on a clean EOF (client
/// closed between requests); `Err` on malformed framing, including a
/// line longer than [`MAX_LINE`] or more than [`MAX_HEADERS`] headers.
pub fn read_request<R: BufRead>(reader: &mut R) -> std::io::Result<Option<Request>> {
    let mut line = String::new();
    if read_bounded_line(reader, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_ascii_uppercase(), p.to_string()),
        _ => return Err(bad("malformed request line")),
    };

    let mut content_length = 0usize;
    let mut close = false;
    let mut headers = 0usize;
    loop {
        let mut header = String::new();
        if read_bounded_line(reader, &mut header)? == 0 {
            return Err(bad("eof inside headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length =
                    value.parse().map_err(|_| bad("unparseable content-length"))?;
            } else if name.eq_ignore_ascii_case("connection")
                && value.eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(bad("body exceeds MAX_BODY"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request { method, path, body, close }))
}

/// `read_line` that reads at most [`MAX_LINE`] bytes: a line that has
/// not ended by then is an error, not an ever-growing buffer.
fn read_bounded_line<R: BufRead>(reader: &mut R, line: &mut String) -> std::io::Result<usize> {
    let n = reader.by_ref().take(MAX_LINE as u64).read_line(line)?;
    if n == MAX_LINE && !line.ends_with('\n') {
        return Err(bad("line exceeds MAX_LINE"));
    }
    Ok(n)
}

/// Writes one response with a JSON body. Head and body go out in a
/// single `write_all`, so on a `TCP_NODELAY` socket the whole response
/// leaves as soon as it is written instead of the body waiting on the
/// client's delayed ACK of the head (Nagle).
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(body.len() + 128);
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    out.extend_from_slice(body.as_bytes());
    w.write_all(&out)?;
    w.flush()
}

/// Canonical reason phrase for the statuses the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A sink that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_leaves_in_one_write_with_exact_framing() {
        let mut w = CountingWriter::default();
        write_response(&mut w, 200, "{\"status\":\"ok\"}", true).unwrap();
        assert_eq!(w.writes, 1, "head and body must share one write");
        assert_eq!(
            w.bytes,
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 15\r\n\
              Connection: keep-alive\r\n\r\n{\"status\":\"ok\"}"
        );

        let mut w = CountingWriter::default();
        write_response(&mut w, 429, "{}", false).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(
            w.bytes,
            b"HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
              Content-Length: 2\r\nConnection: close\r\n\r\n{}"
        );
    }

    #[test]
    fn parses_a_keep_alive_request_then_clean_eof() {
        let raw = "post /v1/forecast HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let mut r = Cursor::new(raw.as_bytes());
        let req = read_request(&mut r).unwrap().expect("one request");
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/v1/forecast"));
        assert_eq!(req.body, b"abcd");
        assert!(!req.close);
        assert!(read_request(&mut r).unwrap().is_none(), "clean EOF between requests");
    }

    #[test]
    fn rejects_an_over_long_line() {
        let long_path = "a".repeat(MAX_LINE);
        let raw = format!("GET /{long_path} HTTP/1.1\r\n\r\n");
        let err = read_request(&mut Cursor::new(raw.as_bytes())).err().expect("must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        let raw = format!("GET / HTTP/1.1\r\nX-Long: {long_path}\r\n\r\n");
        let err = read_request(&mut Cursor::new(raw.as_bytes())).err().expect("must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // A header right at the cap, CRLF included, is still accepted.
        let value = "v".repeat(MAX_LINE - "X-Fit: \r\n".len());
        let raw = format!("GET / HTTP/1.1\r\nX-Fit: {value}\r\n\r\n");
        assert!(read_request(&mut Cursor::new(raw.as_bytes())).unwrap().is_some());
    }

    #[test]
    fn rejects_too_many_headers() {
        let headers = |k: usize| -> String {
            let mut raw = String::from("GET / HTTP/1.1\r\n");
            for i in 0..k {
                raw.push_str(&format!("X-H{i}: v\r\n"));
            }
            raw.push_str("\r\n");
            raw
        };
        let at_cap = headers(MAX_HEADERS);
        assert!(read_request(&mut Cursor::new(at_cap.as_bytes())).unwrap().is_some());
        let over = headers(MAX_HEADERS + 1);
        let err = read_request(&mut Cursor::new(over.as_bytes())).err().expect("must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_eof_inside_headers() {
        for raw in ["GET / HTTP/1.1\r\n", "GET / HTTP/1.1\r\nHost: x\r\n", "GET / HTTP/1.1\r\nHo"] {
            let err = read_request(&mut Cursor::new(raw.as_bytes())).err().expect("must fail");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{raw:?}");
        }
    }
}
