//! The `stgcheck serve` wire protocol: JSON-lines requests and responses.
//!
//! One request per line on the way in, one response object per line on
//! the way out (see `docs/serve.md` for the full schema). The workspace
//! is offline — no `serde` — so this module carries a small hand-rolled
//! JSON reader/writer: a recursive-descent parser into [`Json`] plus the
//! escaping helpers the responder uses. The parser accepts exactly the
//! JSON the protocol needs (objects, strings, numbers, booleans, null,
//! arrays) and rejects everything malformed with a positioned error —
//! a garbled request line must become a typed `bad_request` response,
//! never a panic or a silently dropped request.
//!
//! Request shapes:
//!
//! ```text
//! {"id":"r1","op":"verify","net_path":"benchmarks/par_join.g"}
//! {"id":"r2","op":"verify","net":".model inline\n…","engine":"saturation",
//!  "reorder":"auto","timeout_s":5,"max_nodes":100000,"fallback":true}
//! {"op":"cancel","target":"r2"}
//! {"op":"ping"}
//! ```
//!
//! `op` defaults to `"verify"` when a `net`/`net_path` field is present.
//! Every option field is optional and overrides the daemon's defaults for
//! that one request; the budget fields mirror the `--timeout`,
//! `--max-nodes`, `--max-steps` and `--fallback` CLI flags.

use std::fmt::Write as _;

use crate::engine::EngineOptions;
use crate::verify::{BudgetSpec, VerifyOptions};

/// A parsed JSON value — just enough of the data model for the protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (the protocol never needs more than `f64`).
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in declaration order (the protocol has no duplicate
    /// keys; the *last* occurrence wins on lookup, matching common
    /// parsers).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one JSON document from `text`, rejecting trailing junk.
///
/// # Errors
///
/// A human-readable message naming the byte offset of the problem.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        let n: f64 = text.parse().map_err(|_| format!("bad number `{text}` at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number at byte {start}"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // as one slice. The input is a `&str` and every stop byte is
            // ASCII, so the run is valid UTF-8 on its own and the scan
            // stays linear in the string's length.
            let start = self.pos;
            while self.peek().is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8".to_string())?,
            );
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are rejected rather than
                            // recombined: the protocol never emits them
                            // and a lone surrogate is not a scalar value.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("surrogate \\u{hex} unsupported"))?,
                            );
                        }
                        other => {
                            return Err(format!("unknown escape `\\{}`", other as char));
                        }
                    }
                }
                Some(c) => {
                    return Err(format!("raw control byte 0x{c:02x} in string"));
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One parsed protocol request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Verify a net and respond with verdict + stats.
    Verify(VerifyRequest),
    /// Flip the cancellation latch of the named in-flight request.
    Cancel {
        /// The `id` of the request to cancel.
        target: String,
    },
    /// Liveness probe; answered immediately from the admission thread.
    Ping {
        /// Optional echo id.
        id: Option<String>,
    },
}

/// The payload of a `verify` request.
#[derive(Clone, Debug)]
pub struct VerifyRequest {
    /// Client-chosen request id, echoed on the response and addressable
    /// by `cancel`.
    pub id: String,
    /// Inline `.g` source, when given.
    pub net: Option<String>,
    /// Path to a `.g` file, when given (exactly one of `net`/`net_path`).
    pub net_path: Option<String>,
    /// Fully resolved verification options: the daemon defaults with the
    /// request's overrides applied.
    pub options: VerifyOptions,
}

/// The fields a `verify` request may carry.
const VERIFY_FIELDS: &[&str] = &[
    "op",
    "id",
    "net",
    "net_path",
    "engine",
    "reorder",
    "order",
    "jobs",
    "arbitration",
    "timeout_s",
    "max_nodes",
    "max_steps",
    "fallback",
];

/// Parses one request line against the daemon's default options.
///
/// # Errors
///
/// A `bad_request` explanation: malformed JSON, unknown fields of known
/// ops, missing ids, bad option values. The caller turns this into a
/// rejection response carrying the same text. Rejecting unknown fields
/// makes a typo such as `"engin"` fail loudly instead of running the
/// request with the daemon's defaults.
pub fn parse_request(line: &str, defaults: &VerifyOptions) -> Result<Request, String> {
    let json = parse_json(line)?;
    if !matches!(json, Json::Obj(_)) {
        return Err("request must be a JSON object".to_string());
    }
    let op = match json.get("op") {
        None => {
            if json.get("net").is_some() || json.get("net_path").is_some() {
                "verify"
            } else {
                return Err("missing `op` (and no `net`/`net_path` to imply verify)".to_string());
            }
        }
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => return Err("`op` must be a string".to_string()),
    };
    let fields: &[&str] = match op {
        "verify" => VERIFY_FIELDS,
        "cancel" => &["op", "target"],
        "ping" => &["op", "id"],
        other => return Err(format!("unknown op `{other}` (expected verify, cancel or ping)")),
    };
    if let Json::Obj(members) = &json {
        if let Some((field, _)) = members.iter().find(|(k, _)| !fields.contains(&k.as_str())) {
            return Err(format!(
                "unknown field `{field}` for op `{op}` (accepted: {})",
                fields.join(", ")
            ));
        }
    }
    match op {
        "verify" => parse_verify(&json, defaults).map(Request::Verify),
        "cancel" => {
            let target = json
                .get("target")
                .and_then(Json::as_str)
                .ok_or("cancel needs a string `target` naming the request id to cancel")?;
            Ok(Request::Cancel { target: target.to_string() })
        }
        _ => {
            let id = json.get("id").and_then(Json::as_str).map(str::to_string);
            Ok(Request::Ping { id })
        }
    }
}

/// Reads an optional string field, `parse`s it into an options value.
fn opt_parse<T: std::str::FromStr<Err = String>>(
    json: &Json,
    field: &str,
    into: &mut T,
) -> Result<(), String> {
    if let Some(v) = json.get(field) {
        let s = v.as_str().ok_or_else(|| format!("`{field}` must be a string"))?;
        *into = s.parse().map_err(|e: String| format!("`{field}`: {e}"))?;
    }
    Ok(())
}

/// Reads an optional non-negative integer field.
fn opt_uint(json: &Json, field: &str) -> Result<Option<u64>, String> {
    match json.get(field) {
        None => Ok(None),
        Some(v) => {
            let n = v.as_num().ok_or_else(|| format!("`{field}` must be a number"))?;
            if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
                return Err(format!("`{field}` must be a non-negative integer"));
            }
            Ok(Some(n as u64))
        }
    }
}

/// Reads an optional boolean field.
fn opt_bool(json: &Json, field: &str) -> Result<Option<bool>, String> {
    match json.get(field) {
        None => Ok(None),
        Some(v) => v.as_bool().map(Some).ok_or_else(|| format!("`{field}` must be true or false")),
    }
}

fn parse_verify(json: &Json, defaults: &VerifyOptions) -> Result<VerifyRequest, String> {
    let id = json
        .get("id")
        .and_then(Json::as_str)
        .ok_or("verify needs a string `id` (echoed on the response)")?
        .to_string();
    if id.is_empty() {
        return Err("`id` must be non-empty".to_string());
    }
    let net = json.get("net").map(|v| {
        v.as_str().map(str::to_string).ok_or_else(|| "`net` must be a string".to_string())
    });
    let net_path = json.get("net_path").map(|v| {
        v.as_str().map(str::to_string).ok_or_else(|| "`net_path` must be a string".to_string())
    });
    let (net, net_path) = match (net.transpose()?, net_path.transpose()?) {
        (Some(_), Some(_)) => {
            return Err("give `net` (inline source) or `net_path` (file), not both".to_string())
        }
        (None, None) => return Err("verify needs `net` (inline source) or `net_path`".to_string()),
        pair => pair,
    };

    let mut options = *defaults;
    opt_parse(json, "engine", &mut options.engine.kind)?;
    opt_parse(json, "reorder", &mut options.reorder)?;
    opt_parse(json, "order", &mut options.order)?;
    if let Some(jobs) = opt_uint(json, "jobs")? {
        // The parallel engine starts up to `jobs` threads at once; past
        // the host's parallelism (what `jobs: 0` resolves to) they only
        // add threads, so a request line cannot ask for thousands.
        let most = EngineOptions::default().effective_jobs();
        if jobs > most as u64 {
            return Err(format!("`jobs` must be at most {most}, the available parallelism"));
        }
        options.engine.jobs = jobs as usize;
    }
    if let Some(arb) = opt_bool(json, "arbitration")? {
        options.policy.allow_arbitration = arb;
    }
    if let Some(v) = json.get("timeout_s") {
        let secs = v.as_num().ok_or("`timeout_s` must be a number")?;
        let timeout =
            BudgetSpec::timeout_from_secs(secs).map_err(|e| format!("`timeout_s` {e}"))?;
        options.budget.timeout = Some(timeout);
    }
    if let Some(n) = opt_uint(json, "max_nodes")? {
        options.budget.max_nodes = n as usize;
    }
    if let Some(n) = opt_uint(json, "max_steps")? {
        options.budget.max_steps = n;
    }
    if let Some(fb) = opt_bool(json, "fallback")? {
        options.budget.fallback = fb;
    }
    Ok(VerifyRequest { id, net, net_path, options })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::VarOrder;
    use crate::engine::{EngineKind, ReorderMode};
    use std::time::Duration;

    #[test]
    fn json_parses_and_rejects() {
        let v = parse_json(r#"{"a": 1, "b": "x\ny", "c": [true, null], "d": {"e": -2.5}}"#)
            .expect("valid document");
        assert_eq!(v.get("a").and_then(Json::as_num), Some(1.0));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Json::Arr(vec![Json::Bool(true), Json::Null])));
        assert_eq!(v.get("d").and_then(|d| d.get("e")).and_then(Json::as_num), Some(-2.5));
        for bad in
            ["", "{", "{\"a\":}", "[1,]", "{\"a\" 1}", "tru", "\"unterminated", "{} junk", "1e999"]
        {
            assert!(parse_json(bad).is_err(), "`{bad}` must be rejected");
        }
        // Escapes round-trip through the writer.
        let hostile = "a\"b\\c\nd\te\r\u{1}";
        let parsed = parse_json(&format!("\"{}\"", json_escape(hostile))).unwrap();
        assert_eq!(parsed.as_str(), Some(hostile));
    }

    #[test]
    fn verify_requests_resolve_options() {
        let defaults = VerifyOptions::default();
        let req = parse_request(
            r#"{"id":"r1","op":"verify","net":"x","engine":"clustered","reorder":"auto",
                "order":"declaration","timeout_s":2.5,"max_steps":100,"fallback":true,
                "arbitration":true}"#
                .replace('\n', " ")
                .as_str(),
            &defaults,
        )
        .expect("parses");
        let Request::Verify(v) = req else { panic!("expected verify") };
        assert_eq!(v.id, "r1");
        assert_eq!(v.net.as_deref(), Some("x"));
        // `clustered` is the retired clustered engine's name, now a
        // spelling of saturation.
        assert_eq!(v.options.engine.kind, EngineKind::Saturation);
        assert_eq!(v.options.reorder, ReorderMode::Auto);
        assert_eq!(v.options.order, VarOrder::Declaration);
        assert_eq!(v.options.budget.timeout, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(v.options.budget.max_steps, 100);
        assert!(v.options.budget.fallback);
        assert!(v.options.policy.allow_arbitration);
        // `op` defaults to verify when a net field is present.
        assert!(matches!(
            parse_request(r#"{"id":"r2","net_path":"a.g"}"#, &defaults),
            Ok(Request::Verify(_))
        ));
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        let d = VerifyOptions::default();
        for (line, needle) in [
            ("not json", "bad literal"),
            ("[1]", "must be a JSON object"),
            ("{}", "missing `op`"),
            (r#"{"op":"verify","net":"x"}"#, "needs a string `id`"),
            (r#"{"id":"","op":"verify","net":"x"}"#, "non-empty"),
            (r#"{"id":"a","op":"verify"}"#, "`net` (inline source) or `net_path`"),
            (r#"{"id":"a","op":"verify","net":"x","net_path":"y"}"#, "not both"),
            (r#"{"id":"a","net":"x","engine":"frob"}"#, "unknown engine"),
            (r#"{"id":"a","net":"x","timeout_s":-1}"#, "positive"),
            (r#"{"id":"a","net":"x","timeout_s":1e300}"#, "`timeout_s` must be at most"),
            (r#"{"id":"a","net":"x","timeout_s":1e400}"#, "non-finite number"),
            (r#"{"id":"a","net":"x","order":"bogus"}"#, "`order`: unknown order `bogus`"),
            (r#"{"id":"a","net":"x","max_steps":1.5}"#, "non-negative integer"),
            (r#"{"id":"a","net":"x","jobs":1000000}"#, "`jobs` must be at most"),
            (r#"{"op":"cancel"}"#, "needs a string `target`"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (
                r#"{"id":"a","net":"x","engin":"clustered"}"#,
                "unknown field `engin` for op `verify`",
            ),
            (r#"{"id":"a","net":"x","exec":"shared"}"#, "unknown field `exec`"),
            (
                r#"{"id":"a","net":"x","sharing":"private"}"#,
                "unknown field `sharing` for op `verify`",
            ),
            (r#"{"id":"a","net":"x","bfs":true}"#, "unknown field `bfs` for op `verify`"),
            (r#"{"op":"cancel","target":"r1","id":"c1"}"#, "unknown field `id` for op `cancel`"),
            (r#"{"op":"ping","id":"p","verbose":true}"#, "unknown field `verbose` for op `ping`"),
        ] {
            let err = parse_request(line, &d).expect_err(line);
            assert!(err.contains(needle), "`{line}` → `{err}` (wanted `{needle}`)");
        }
        // The `jobs` bound itself still parses.
        let most = EngineOptions::default().effective_jobs();
        let line = format!(r#"{{"id":"a","net":"x","jobs":{most}}}"#);
        let Ok(Request::Verify(v)) = parse_request(&line, &d) else { panic!("`{line}` refused") };
        assert_eq!(v.options.engine.jobs, most);
    }

    /// A verify request with a 1 MiB inline net — multi-byte characters,
    /// escapes and all — parses in one linear pass and hands the exact
    /// text back.
    #[test]
    fn large_inline_net_parses_and_round_trips() {
        let chunk = "# \u{fc}nicode \"quoted\" back\\slash\ttab \u{1f600}\n";
        let net = chunk.repeat((1 << 20) / chunk.len() + 1);
        assert!(net.len() >= 1 << 20);
        let line = format!(r#"{{"id":"big","net":"{}"}}"#, json_escape(&net));
        let Request::Verify(v) = parse_request(&line, &VerifyOptions::default()).expect("parses")
        else {
            panic!("expected verify")
        };
        assert_eq!(v.net.as_deref(), Some(net.as_str()));
    }
}
