//! A minimal recursive-descent JSON parser and a Chrome trace-event
//! schema validator, used to check that the observability exporters emit
//! well-formed documents, plus the small writer ([`Doc`]) behind every
//! `BENCH_*.json`. Dependency-free by design: the repository hand-rolls
//! all JSON, so the validator must not rely on the same code paths it is
//! checking.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; later duplicate keys win, as in `JSON.parse`.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key`, if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is an object.
    pub fn is_obj(&self) -> bool {
        matches!(self, Json::Obj(_))
    }
}

/// A parse or validation failure, with a byte offset where applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the document (0 for schema-level failures).
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            message: message.into(),
            offset: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => self.err(format!("unexpected byte '{}'", b as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected '{word}'"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => self.err(format!("invalid number '{text}'")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or(JsonError {
                        message: "unterminated escape".into(),
                        offset: self.pos,
                    })?;
                    self.pos += 1;
                    match escape {
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
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = hex else {
                                return self.err("invalid \\u escape");
                            };
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our
                            // exporters; map lone surrogates to the
                            // replacement character like JSON.parse.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return self.err(format!("invalid escape '\\{}'", other as char)),
                    }
                }
                Some(b) if b < 0x20 => return self.err("unescaped control character"),
                Some(_) => {
                    // Copy one UTF-8 scalar as-is.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| JsonError {
                            message: "invalid UTF-8".into(),
                            offset: self.pos,
                        })?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first syntax error, or of
/// trailing garbage after the top-level value.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.err("trailing characters after document");
    }
    Ok(value)
}

fn require_num(event: &Json, field: &str, index: usize) -> Result<(), JsonError> {
    if event.get(field).and_then(Json::as_num).is_none() {
        return Err(JsonError {
            message: format!("traceEvents[{index}] lacks numeric \"{field}\""),
            offset: 0,
        });
    }
    Ok(())
}

/// Validates a Chrome trace-event / Perfetto JSON document as produced by
/// the observability exporters: a top-level object with a `traceEvents`
/// array, every event an object with a `name` string, a one-character
/// phase `ph`, and numeric `pid`/`tid`; complete spans (`ph:"X"`) must
/// carry numeric `ts` and `dur`, instants (`ph:"i"`) numeric `ts` and a
/// scope `s` in `g`/`p`/`t`, metadata (`ph:"M"`) an `args` object.
/// Returns the number of events.
///
/// # Errors
///
/// [`JsonError`] naming the first malformed event (offset 0 for schema
/// failures, the byte offset for syntax failures).
pub fn validate_trace_event_json(text: &str) -> Result<usize, JsonError> {
    let doc = parse(text)?;
    let schema_err = |message: String| JsonError { message, offset: 0 };
    if !doc.is_obj() {
        return Err(schema_err("top level is not an object".into()));
    }
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| schema_err("missing \"traceEvents\" array".into()))?;
    for (index, event) in events.iter().enumerate() {
        if !event.is_obj() {
            return Err(schema_err(format!("traceEvents[{index}] is not an object")));
        }
        if event.get("name").and_then(Json::as_str).is_none() {
            return Err(schema_err(format!(
                "traceEvents[{index}] lacks a \"name\" string"
            )));
        }
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| schema_err(format!("traceEvents[{index}] lacks a \"ph\" string")))?;
        if ph.chars().count() != 1 {
            return Err(schema_err(format!(
                "traceEvents[{index}] phase \"{ph}\" is not one character"
            )));
        }
        require_num(event, "pid", index)?;
        require_num(event, "tid", index)?;
        match ph {
            "X" => {
                require_num(event, "ts", index)?;
                require_num(event, "dur", index)?;
            }
            "i" => {
                require_num(event, "ts", index)?;
                let scope = event.get("s").and_then(Json::as_str).unwrap_or("t");
                if !matches!(scope, "g" | "p" | "t") {
                    return Err(schema_err(format!(
                        "traceEvents[{index}] instant scope \"{scope}\" invalid"
                    )));
                }
            }
            "M" => {
                if !event.get("args").is_some_and(Json::is_obj) {
                    return Err(schema_err(format!(
                        "traceEvents[{index}] metadata lacks an \"args\" object"
                    )));
                }
            }
            "B" | "E" => {
                require_num(event, "ts", index)?;
            }
            "s" | "t" | "f" => {
                require_num(event, "ts", index)?;
                require_num(event, "id", index)?;
            }
            other => {
                return Err(schema_err(format!(
                    "traceEvents[{index}] unknown phase \"{other}\""
                )));
            }
        }
    }
    Ok(events.len())
}

/// Validates a telemetry time-series JSON document as produced by the
/// `hermes` telemetry exporter: a top-level object with a `time_series`
/// object carrying numeric `interval`/`cycles_per_flit`/`frames_total`,
/// a `frames` array (each frame an object with numeric
/// `index`/`start`/`end` counters, a `links` array of
/// `{link, flits, utilization_permille}` objects, a `routers` array of
/// `{router, grants, buffered}` objects and a `latency` object), plus
/// `hotspots` and `alerts` arrays. Returns the number of frames.
///
/// # Errors
///
/// [`JsonError`] naming the first schema violation (offset 0) or the
/// byte offset of a syntax failure.
pub fn validate_time_series_json(text: &str) -> Result<usize, JsonError> {
    let doc = parse(text)?;
    let schema_err = |message: String| JsonError { message, offset: 0 };
    let ts = doc
        .get("time_series")
        .filter(|v| v.is_obj())
        .ok_or_else(|| schema_err("missing \"time_series\" object".into()))?;
    for field in [
        "interval",
        "cycles_per_flit",
        "frames_total",
        "frames_evicted",
    ] {
        if ts.get(field).and_then(Json::as_num).is_none() {
            return Err(schema_err(format!("time_series lacks numeric \"{field}\"")));
        }
    }
    let frames = ts
        .get("frames")
        .and_then(Json::as_arr)
        .ok_or_else(|| schema_err("missing \"frames\" array".into()))?;
    for (index, frame) in frames.iter().enumerate() {
        for field in [
            "index",
            "start",
            "end",
            "flit_hops",
            "flits_delivered",
            "packets_sent",
            "packets_delivered",
        ] {
            if frame.get(field).and_then(Json::as_num).is_none() {
                return Err(schema_err(format!(
                    "frames[{index}] lacks numeric \"{field}\""
                )));
            }
        }
        let links = frame
            .get("links")
            .and_then(Json::as_arr)
            .ok_or_else(|| schema_err(format!("frames[{index}] lacks a \"links\" array")))?;
        for (li, link) in links.iter().enumerate() {
            if link.get("link").and_then(Json::as_str).is_none()
                || link.get("flits").and_then(Json::as_num).is_none()
                || link
                    .get("utilization_permille")
                    .and_then(Json::as_num)
                    .is_none()
            {
                return Err(schema_err(format!("frames[{index}].links[{li}] malformed")));
            }
        }
        let routers = frame
            .get("routers")
            .and_then(Json::as_arr)
            .ok_or_else(|| schema_err(format!("frames[{index}] lacks a \"routers\" array")))?;
        for (ri, router) in routers.iter().enumerate() {
            if router.get("router").and_then(Json::as_str).is_none()
                || router.get("grants").and_then(Json::as_num).is_none()
                || router.get("buffered").and_then(Json::as_num).is_none()
            {
                return Err(schema_err(format!(
                    "frames[{index}].routers[{ri}] malformed"
                )));
            }
        }
        let latency = frame
            .get("latency")
            .filter(|v| v.is_obj())
            .ok_or_else(|| schema_err(format!("frames[{index}] lacks a \"latency\" object")))?;
        for field in ["packets", "sum_cycles", "overflow"] {
            if latency.get(field).and_then(Json::as_num).is_none() {
                return Err(schema_err(format!(
                    "frames[{index}].latency lacks numeric \"{field}\""
                )));
            }
        }
        if latency.get("buckets").and_then(Json::as_arr).is_none() {
            return Err(schema_err(format!(
                "frames[{index}].latency lacks a \"buckets\" array"
            )));
        }
    }
    for (name, label_field) in [("hotspots", "link"), ("alerts", "link")] {
        let entries = ts
            .get(name)
            .and_then(Json::as_arr)
            .ok_or_else(|| schema_err(format!("missing \"{name}\" array")))?;
        for (index, entry) in entries.iter().enumerate() {
            if entry.get(label_field).and_then(Json::as_str).is_none()
                || entry.get("ewma_permille").and_then(Json::as_num).is_none()
            {
                return Err(schema_err(format!("{name}[{index}] malformed")));
            }
        }
    }
    Ok(frames.len())
}

/// A JSON document to write. Object keys keep their insertion order and
/// numbers keep the formatting the caller gave them, so a `BENCH_*.json`
/// reads the same however it was built.
#[derive(Debug, Clone, PartialEq)]
pub enum Doc {
    /// A preformatted number, `true`, `false` or `null`.
    Lit(String),
    /// A string, quoted on output with `"` and `\\` escaped (the
    /// artifacts' strings are labels without control characters).
    Str(String),
    /// An array.
    Arr(Vec<Doc>),
    /// An object, in key order.
    Obj(Vec<(&'static str, Doc)>),
}

/// Builds a [`Doc::Obj`] from `"key": value` pairs, converting each value
/// with `Doc::from`.
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Doc::Obj(vec![$(($key, $crate::json::Doc::from($value))),*])
    };
}

/// A float written with a fixed number of decimals.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl From<Fixed> for Doc {
    fn from(Fixed(value, decimals): Fixed) -> Self {
        Doc::Lit(format!("{value:.decimals$}"))
    }
}

macro_rules! lit_from {
    ($($ty:ty),*) => {$(
        impl From<$ty> for Doc {
            fn from(value: $ty) -> Self {
                Doc::Lit(value.to_string())
            }
        }
    )*};
}
lit_from!(u16, u64, u128, usize, bool);

impl<T: Into<Doc>> From<Option<T>> for Doc {
    fn from(value: Option<T>) -> Self {
        value.map_or_else(|| Doc::Lit("null".into()), Into::into)
    }
}

impl From<&str> for Doc {
    fn from(value: &str) -> Self {
        Doc::Str(value.into())
    }
}

impl From<String> for Doc {
    fn from(value: String) -> Self {
        Doc::Str(value)
    }
}

impl From<Vec<Doc>> for Doc {
    fn from(items: Vec<Doc>) -> Self {
        Doc::Arr(items)
    }
}

impl Doc {
    fn inline(&self, out: &mut String) {
        match self {
            Doc::Lit(text) => out.push_str(text),
            Doc::Str(text) => {
                out.push('"');
                for c in text.chars() {
                    if matches!(c, '"' | '\\') {
                        out.push('\\');
                    }
                    out.push(c);
                }
                out.push('"');
            }
            Doc::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { ", " });
                    item.inline(out);
                }
                out.push(']');
            }
            Doc::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    let _ = write!(out, "{}\"{key}\": ", if i == 0 { "" } else { ", " });
                    value.inline(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders the document the way the `BENCH_*.json` files lay it out:
    /// one top-level key per line, each element of a top-level array on a
    /// line of its own, everything deeper inline; newline-terminated.
    pub fn render(&self) -> String {
        let Doc::Obj(fields) = self else {
            let mut out = String::new();
            self.inline(&mut out);
            return out + "\n";
        };
        let mut out = String::from("{\n");
        for (i, (key, value)) in fields.iter().enumerate() {
            let _ = write!(out, "  \"{key}\": ");
            match value {
                Doc::Arr(items) if !items.is_empty() => {
                    out.push_str("[\n");
                    for (j, item) in items.iter().enumerate() {
                        out.push_str("    ");
                        item.inline(&mut out);
                        out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    out.push_str("  ]");
                }
                _ => value.inline(&mut out),
            }
            out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
        }
        out + "}\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = parse(r#"{"a": [1, -2.5, true, null, "x\n\"y\""], "b": {"c": 3e2}}"#).unwrap();
        let a = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_num(), Some(1.0));
        assert_eq!(a[1].as_num(), Some(-2.5));
        assert_eq!(a[2], Json::Bool(true));
        assert_eq!(a[3], Json::Null);
        assert_eq!(a[4].as_str(), Some("x\n\"y\""));
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_num(),
            Some(300.0)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1, ]").is_err());
        assert!(parse("{\"a\": 1} garbage").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01x").is_err());
    }

    #[test]
    fn unicode_escapes_round_trip() {
        assert_eq!(parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn validates_a_minimal_trace_document() {
        let doc = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"p"}},
            {"name":"hop","ph":"X","ts":3,"dur":2,"pid":0,"tid":1},
            {"name":"delivered","ph":"i","s":"t","ts":9,"pid":0,"tid":1}
        ]}"#;
        assert_eq!(validate_trace_event_json(doc), Ok(3));
    }

    #[test]
    fn rejects_schema_violations() {
        assert!(validate_trace_event_json("[]").is_err());
        assert!(validate_trace_event_json("{\"traceEvents\":{}}").is_err());
        let no_dur = r#"{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_trace_event_json(no_dur).is_err());
        let bad_scope = r#"{"traceEvents":[{"name":"x","ph":"i","ts":1,"s":"z","pid":0,"tid":0}]}"#;
        assert!(validate_trace_event_json(bad_scope).is_err());
        let bad_ph = r#"{"traceEvents":[{"name":"x","ph":"??","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_trace_event_json(bad_ph).is_err());
    }

    #[test]
    fn writer_lays_out_bench_documents_and_parses_back() {
        let doc = crate::obj! {
            "experiment": "E0 \"quoted\"",
            "seed": 7u64,
            "points": vec![
                crate::obj! { "mesh": "2x2", "mean": Fixed(1.0 / 3.0, 2), "p99": None::<u64> },
                crate::obj! { "mesh": "3x3", "mean": Fixed(2.5, 1), "p99": Some(9u64) },
            ],
            "summary": crate::obj! { "ok": true, "tags": vec![Doc::from(1u64)] },
        };
        let text = doc.render();
        assert_eq!(
            text,
            "{\n  \"experiment\": \"E0 \\\"quoted\\\"\",\n  \"seed\": 7,\n  \"points\": [\n    \
             {\"mesh\": \"2x2\", \"mean\": 0.33, \"p99\": null},\n    \
             {\"mesh\": \"3x3\", \"mean\": 2.5, \"p99\": 9}\n  ],\n  \
             \"summary\": {\"ok\": true, \"tags\": [1]}\n}\n"
        );
        let parsed = parse(&text).unwrap();
        assert_eq!(
            parsed.get("experiment").and_then(Json::as_str),
            Some("E0 \"quoted\"")
        );
        let points = parsed.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(points[1].get("p99").and_then(Json::as_num), Some(9.0));
    }
}
