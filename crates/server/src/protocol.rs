//! The wire protocol: a minimal HTTP/1.1 subset over `std::net`, plus
//! the job wire format and the hand-rolled JSON the service speaks.
//!
//! The subset is deliberately tiny — request line, headers,
//! `Content-Length` bodies, keep-alive connections — because both ends
//! are in this workspace; there is no external dependency to satisfy.
//! Still, the shapes are honest HTTP: a load balancer's health checker
//! can GET `/healthz`, and a generic client that POSTs a job learns
//! about backpressure the standard way (status `429`/`503` with a
//! `Retry-After` header).
//!
//! # Endpoints
//!
//! | Method/path         | Meaning |
//! |---------------------|---------|
//! | `GET /healthz`      | liveness — `200 ok` |
//! | `GET /v1/stats`     | scheduler counters as JSON |
//! | `POST /v1/jobs`     | submit a job (see below); `?wait=1` blocks for the outcome |
//! | `GET /v1/jobs/<t>`  | status of ticket `<t>` |
//! | `POST /v1/drain`    | graceful shutdown: evict queue, checkpoint in-flight, stop |
//!
//! # Job submission
//!
//! The body is the assembled [`Object`] in its binary container format
//! ([`Object::to_bytes`]); everything else rides in `x-` headers:
//!
//! * `x-tenant` (required) — the submitting tenant's name,
//! * `x-class` — `interactive` or `batch` (default),
//! * `x-cycles` (required) — the `Cycles(n)` budget,
//! * `x-geometry` — ring size `8`/`16`/`64` (default 8),
//! * `x-input-<switch>-<port>` — comma-separated i16 input words,
//! * `x-sink` — comma-separated `<switch>.<port>` sinks to capture,
//! * `x-watchdog` — controller watchdog interval (simulated-cycle
//!   deadline; `0`/absent disarms),
//! * `x-wall-ms` — wall-clock deadline in milliseconds,
//! * `x-chaos-seed`, `x-chaos-ppm` — arm uniform fault injection (the
//!   chaos-campaign hook; detection machinery included).
//!
//! Submissions are lint-gated server-side: an object that fails
//! `ringlint` pre-flight for the requested geometry/sizing is refused
//! with `400` before it consumes any queue slot.

use std::io::{self, BufRead, Read, Write};

use systolic_ring_core::{FaultConfig, MachineParams};
use systolic_ring_harness::admission::JobClass;
use systolic_ring_harness::job::{CycleBudget, Job, JobOutcome};
use systolic_ring_isa::object::Object;
use systolic_ring_isa::{RingGeometry, Word16};

use crate::service::{JobStatus, ServiceStats};

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Uppercase method.
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Decoded `key=value` query pairs.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// `true` when the query contains `key=1` or bare `key`.
    pub fn flag(&self, key: &str) -> bool {
        self.query
            .iter()
            .any(|(k, v)| k == key && (v == "1" || v.is_empty()))
    }
}

/// Most body bytes [`read_request`] reserves before any arrive.
const BODY_RESERVE: usize = 64 * 1024;

/// Reads one request from a keep-alive connection; `None` on clean EOF.
pub fn read_request(stream: &mut impl BufRead) -> io::Result<Option<Request>> {
    let mut line = String::new();
    if stream.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad request line",
        ));
    };
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (pair.to_owned(), String::new()),
        })
        .collect();
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if stream.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "mid-headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad header"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        }
        headers.push((name, value));
    }
    // The header is the client's claim, not an allocation size: reserve
    // at most `BODY_RESERVE` up front and let the buffer grow only with
    // bytes that actually arrive.
    let mut body = Vec::with_capacity(content_length.min(BODY_RESERVE));
    stream.take(content_length as u64).read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "short body"));
    }
    Ok(Some(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_owned(),
        query,
        headers,
        body,
    }))
}

/// One response to serialize.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (`Content-Length`/`Content-Type` are added).
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            headers: vec![("content-type".into(), "application/json".into())],
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("content-type".into(), "text/plain".into())],
            body: body.into().into_bytes(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.headers.push((name.into(), value));
        self
    }
}

/// The reason phrase for the handful of statuses the service uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes `response` in HTTP/1.1 framing (keep-alive).
pub fn write_response(stream: &mut impl Write, response: &Response) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {} {}\r\n",
        response.status,
        reason(response.status)
    )?;
    for (name, value) in &response.headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    write!(stream, "content-length: {}\r\n\r\n", response.body.len())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// A job submission decoded off the wire.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Submitting tenant.
    pub tenant: String,
    /// Service class.
    pub class: JobClass,
    /// `Cycles(n)` budget.
    pub cycles: u64,
    /// Ring geometry.
    pub geometry: RingGeometry,
    /// Watchdog interval (0 = off).
    pub watchdog: u64,
    /// Wall-clock deadline.
    pub wall_ms: Option<u64>,
    /// Uniform chaos injection `(seed, ppm)`.
    pub chaos: Option<(u64, u32)>,
    /// Input streams `(switch, port, words)`.
    pub inputs: Vec<(usize, usize, Vec<i16>)>,
    /// Sinks to capture `(switch, port)`.
    pub sinks: Vec<(usize, usize)>,
    /// The assembled object.
    pub object: Object,
}

impl JobSpec {
    /// Decodes a `POST /v1/jobs` request.
    pub fn parse(req: &Request) -> Result<JobSpec, String> {
        let tenant = req
            .header("x-tenant")
            .ok_or("missing x-tenant header")?
            .to_owned();
        if tenant.is_empty() {
            return Err("empty x-tenant header".into());
        }
        let class = match req.header("x-class") {
            None | Some("batch") => JobClass::Batch,
            Some("interactive") => JobClass::Interactive,
            Some(other) => return Err(format!("unknown x-class {other:?}")),
        };
        let cycles: u64 = req
            .header("x-cycles")
            .ok_or("missing x-cycles header")?
            .parse()
            .map_err(|_| "x-cycles is not a number")?;
        if cycles == 0 {
            return Err("x-cycles must be positive".into());
        }
        let geometry = match req.header("x-geometry") {
            None | Some("8") => RingGeometry::RING_8,
            Some("16") => RingGeometry::RING_16,
            Some("64") => RingGeometry::RING_64,
            Some(other) => return Err(format!("unsupported x-geometry {other:?}")),
        };
        let watchdog = match req.header("x-watchdog") {
            Some(v) => v.parse().map_err(|_| "x-watchdog is not a number")?,
            None => 0,
        };
        let wall_ms = match req.header("x-wall-ms") {
            Some(v) => Some(v.parse().map_err(|_| "x-wall-ms is not a number")?),
            None => None,
        };
        let chaos = match (req.header("x-chaos-seed"), req.header("x-chaos-ppm")) {
            (None, None) => None,
            (seed, ppm) => {
                let seed: u64 = seed
                    .ok_or("x-chaos-ppm without x-chaos-seed")?
                    .parse()
                    .map_err(|_| "x-chaos-seed is not a number")?;
                let ppm: u32 = ppm
                    .ok_or("x-chaos-seed without x-chaos-ppm")?
                    .parse()
                    .map_err(|_| "x-chaos-ppm is not a number")?;
                Some((seed, ppm))
            }
        };
        let mut inputs = Vec::new();
        for (name, value) in &req.headers {
            if let Some(rest) = name.strip_prefix("x-input-") {
                let (switch, port) = rest
                    .split_once('-')
                    .ok_or("x-input header needs x-input-<switch>-<port>")?;
                let switch: usize = switch.parse().map_err(|_| "bad x-input switch index")?;
                let port: usize = port.parse().map_err(|_| "bad x-input port index")?;
                let words = value
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| s.trim().parse::<i16>())
                    .collect::<Result<Vec<i16>, _>>()
                    .map_err(|_| "x-input words must be i16")?;
                inputs.push((switch, port, words));
            }
        }
        let mut sinks = Vec::new();
        for (name, value) in &req.headers {
            if name == "x-sink" {
                for pair in value.split(',').filter(|s| !s.trim().is_empty()) {
                    let (switch, port) = pair
                        .trim()
                        .split_once('.')
                        .ok_or("x-sink entries are <switch>.<port>")?;
                    sinks.push((
                        switch.parse().map_err(|_| "bad x-sink switch index")?,
                        port.parse().map_err(|_| "bad x-sink port index")?,
                    ));
                }
            }
        }
        let object = Object::from_bytes(&req.body).map_err(|e| format!("bad object body: {e}"))?;
        Ok(JobSpec {
            tenant,
            class,
            cycles,
            geometry,
            watchdog,
            wall_ms,
            chaos,
            inputs,
            sinks,
            object,
        })
    }

    /// Builds the lint-gated harness [`Job`] this spec describes.
    pub fn build(&self) -> Job {
        let params = MachineParams::PAPER.with_watchdog(self.watchdog);
        let mut job = Job::from_object(
            self.tenant.clone(),
            self.geometry,
            params,
            self.object.clone(),
            CycleBudget::Cycles(self.cycles),
        );
        if let Some((seed, ppm)) = self.chaos {
            job = job.with_faults(FaultConfig::uniform(seed, ppm));
        }
        for (switch, port, words) in &self.inputs {
            job = job.with_input(*switch, *port, words.iter().map(|w| Word16::from_i16(*w)));
        }
        for (switch, port) in &self.sinks {
            job = job.with_sink(*switch, *port);
        }
        job
    }
}

/// Renders a ticket status as the wire JSON.
pub fn status_json(ticket: u64, status: &JobStatus) -> String {
    let mut out = format!("{{\"ticket\":{ticket},\"status\":\"{}\"", status.name());
    match status {
        JobStatus::Checkpointed { cycle } => {
            out.push_str(&format!(",\"cycle\":{cycle}"));
        }
        JobStatus::Done(JobOutcome::Completed(output)) => {
            out.push_str(&format!(",\"cycles\":{},\"outputs\":[", output.cycles));
            for (i, sink) in output.outputs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                for (j, &word) in sink.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    push_i16(&mut out, word);
                }
                out.push(']');
            }
            out.push(']');
        }
        JobStatus::Done(JobOutcome::Fault(fault)) => {
            out.push_str(",\"fault\":");
            out.push_str(&json_string(&fault.to_string()));
            if fault.is_detected_fault() {
                out.push_str(",\"detected\":true");
            }
        }
        JobStatus::Queued | JobStatus::Running => {}
    }
    out.push('}');
    out
}

/// Appends `value` in decimal, byte for byte as its `Display` renders it,
/// without building a `String` per word.
fn push_i16(out: &mut String, value: i16) {
    let mut digits = [0u8; 5];
    let mut rest = value.unsigned_abs();
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if value < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Renders the scheduler counters as the wire JSON. The `tenants`
/// object is keyed by tenant name in sorted order, one accounting row
/// per tenant the scheduler ever ran or completed work for.
pub fn stats_json(stats: &ServiceStats) -> String {
    let mut out = format!(
        "{{\"admitted\":{},\"rejected_full\":{},\"rejected_quota\":{},\"rejected_draining\":{},\
         \"max_queue_depth\":{},\"queue_depth\":{},\"interactive_waiting\":{},\
         \"running_units\":{},\"parked_jobs\":{},\"preemptions\":{},\"completed\":{},\
         \"faulted\":{},\"evicted\":{},\"advanced_cycles\":{},\"lane_occupancy\":{:.4},\
         \"tenants\":{{",
        stats.admission.admitted,
        stats.admission.rejected_full,
        stats.admission.rejected_quota,
        stats.admission.rejected_draining,
        stats.admission.max_depth,
        stats.queue_depth,
        stats.interactive_waiting,
        stats.running_units,
        stats.parked_jobs,
        stats.preemptions,
        stats.completed,
        stats.faulted,
        stats.evicted,
        stats.advanced_cycles,
        stats.lane_occupancy(),
    );
    for (i, row) in stats.tenants.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(&row.tenant));
        out.push_str(&format!(
            ":{{\"cycles_simulated\":{},\"jobs_completed\":{},\"preemptions\":{}}}",
            row.cycles_simulated, row.jobs_completed, row.preemptions,
        ));
    }
    out.push_str("}}");
    out
}

/// Escapes a string into a JSON literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A minimal JSON value, enough to parse the service's own responses
/// (the [`client`](crate::client) and the load generator use it; the
/// server only ever *emits* JSON).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any number (lossy for huge u64s, which the service never emits).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as u64 (truncating).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8 in string")?;
                    let c = rest.chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected , or ] at {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected , or }} at {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_the_shapes_the_service_emits() {
        let doc = r#"{"ticket":7,"status":"completed","cycles":2048,"outputs":[[1,-2,3],[]],"lane_occupancy":3.5000,"fault":"cycle 3: \"quoted\"","flag":true,"none":null}"#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("ticket").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("status").and_then(Json::as_str), Some("completed"));
        assert_eq!(v.get("lane_occupancy").and_then(Json::as_f64), Some(3.5));
        let outputs = v.get("outputs").and_then(Json::as_arr).expect("arr");
        assert_eq!(outputs[0].as_arr().unwrap().len(), 3);
        assert_eq!(outputs[1].as_arr().unwrap().len(), 0);
        assert_eq!(
            v.get("fault").and_then(Json::as_str),
            Some("cycle 3: \"quoted\"")
        );
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
    }

    #[test]
    fn status_json_renders_output_words_at_the_i16_extremes() {
        use systolic_ring_core::Stats;
        use systolic_ring_harness::job::JobOutput;
        let status = JobStatus::Done(JobOutcome::Completed(JobOutput {
            outputs: vec![vec![i16::MIN, -1, 0, 1, i16::MAX], vec![], vec![-10, 100]],
            cycles: 42,
            stats: Stats::default(),
        }));
        assert_eq!(
            status_json(9, &status),
            r#"{"ticket":9,"status":"completed","cycles":42,"outputs":[[-32768,-1,0,1,32767],[],[-10,100]]}"#
        );
    }

    #[test]
    fn json_string_escapes_survive_the_parser() {
        let nasty = "line\nbreak \"quotes\" back\\slash \u{1}control";
        let doc = format!("{{\"msg\":{}}}", json_string(nasty));
        let v = Json::parse(&doc).expect("parses");
        assert_eq!(v.get("msg").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn request_parsing_handles_query_and_headers() {
        let raw =
            "POST /v1/jobs?wait=1 HTTP/1.1\r\nX-Tenant: alice\r\nContent-Length: 3\r\n\r\nabc";
        let mut reader = std::io::BufReader::new(raw.as_bytes());
        let req = read_request(&mut reader).expect("io").expect("request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert!(req.flag("wait"));
        assert_eq!(req.header("x-tenant"), Some("alice"));
        assert_eq!(req.body, b"abc");
        // EOF after the request: keep-alive loop sees a clean close.
        assert!(read_request(&mut reader).expect("io").is_none());
    }

    #[test]
    fn huge_content_length_with_a_short_body_is_an_error() {
        let raw = "POST /v1/jobs HTTP/1.1\r\ncontent-length: 1000000000000\r\n\r\nabc";
        let mut reader = std::io::BufReader::new(raw.as_bytes());
        let err = read_request(&mut reader).expect_err("3 of 10^12 bytes");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
