//! A minimal HTTP/1.1 client for the serving frontend: one request per
//! connection, as the server closes each connection after its reply.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};

/// The exact bytes of a `POST` with a JSON body.
pub fn post_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The `/recommend` body asking for `user`'s top `k`.
pub fn recommend_body(user: u32, k: usize) -> String {
    format!("{{\"user\":{user},\"top_k\":{k}}}")
}

/// Sends `request` to `addr` and returns the status code and body.
pub fn send(addr: SocketAddr, request: &[u8]) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(request)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status = text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b).to_string();
    Ok((status, body))
}

/// Sends `POST path` with `body`; returns the reply body on status 200.
pub fn post_ok(addr: SocketAddr, path: &str, body: &str) -> Option<String> {
    match send(addr, &post_bytes(path, body)) {
        Ok((200, reply)) => Some(reply),
        _ => None,
    }
}

/// The unsigned integer after `"key":` in a flat JSON reply.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = &body[body.find(&needle)? + needle.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A `/recommend` reply: the serving model version and the ranked
/// `(item, score)` pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct Ranked {
    /// Model version that scored the request.
    pub model_version: u64,
    /// Ranked items with their scores.
    pub items: Vec<(u32, f32)>,
}

/// Parses a `/recommend` reply body.
pub fn parse_ranking(body: &str) -> Option<Ranked> {
    let model_version = json_u64(body, "model_version")?;
    let list = &body[body.find("\"items\":[")? + 9..];
    let list = &list[..list.rfind(']')?];
    let mut items = Vec::new();
    for entry in list.split('}').filter(|e| e.contains("\"item\"")) {
        let item = json_u64(entry, "item")? as u32;
        let score_at = entry.find("\"score\":")? + 8;
        items.push((item, entry[score_at..].trim().parse().ok()?));
    }
    Some(Ranked { model_version, items })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_ranking_reply() {
        let body = "{\"user\":3,\"top_k\":2,\"variant\":\"f32\",\"model_version\":7,\
                    \"items\":[{\"item\":12,\"score\":0.5},{\"item\":4,\"score\":-1.25e-3}]}";
        let r = parse_ranking(body).expect("parses");
        assert_eq!(r.model_version, 7);
        assert_eq!(r.items, vec![(12, 0.5), (4, -1.25e-3)]);
        assert_eq!(json_u64(body, "top_k"), Some(2));
        assert_eq!(parse_ranking("{\"error\":\"x\"}"), None);
    }

    #[test]
    fn request_bytes_carry_the_body_length() {
        let bytes = post_bytes("/recommend", &recommend_body(5, 20));
        let text = String::from_utf8(bytes).expect("ascii");
        assert!(text.starts_with("POST /recommend HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 21\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"user\":5,\"top_k\":20}"));
    }
}
