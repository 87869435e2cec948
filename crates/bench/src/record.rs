//! The versioned, machine-readable benchmark record — the schema behind
//! every checked-in `BENCH_*.json` file.
//!
//! The bench suite used to print tables and walk away: performance
//! history lived in EXPERIMENTS.md prose and cross-PR regressions were
//! invisible. This module is the fix — one shared record format, written
//! by `report -- json` (the trajectory suites), by `srconform --json`
//! (the conformance matrix) and read back by `srbench-compare` (the CI
//! regression gate) and `report -- experiments-md` (the generated doc
//! tables). Like the rest of the workspace it is std-only: the
//! serializer below is hand-rolled, and the parser is the service
//! protocol's [`Json`] reader.
//!
//! # File layout
//!
//! ```json
//! {
//!   "schema": "systolic-ring-bench",
//!   "version": 2,
//!   "suite": "table1_motion",
//!   "records": [
//!     {"workload": "table1_motion", "geometry": "Ring-16 (4x4)",
//!      "tier": "fused", "cycles": 1113, "mcyc_per_s": 3.34,
//!      "fused_coverage": 0.5796, "lane_occupancy": 1.0,
//!      "pass": null}
//!   ]
//! }
//! ```
//!
//! A file is one *suite* (one `BENCH_*.json`); a suite holds one record
//! per `(workload, tier)` pair, which is the identity the comparator
//! joins baseline and fresh runs on.
//!
//! # Record fields
//!
//! | field | type | meaning | gated by `srbench-compare`? |
//! |-------|------|---------|------------------------------|
//! | `workload` | string | stable workload id (join key) | — |
//! | `geometry` | string | ring shape label, e.g. `Ring-16 (4x4)` | no (informational) |
//! | `tier` | string | execution tier (join key): `slow`, `decoded`, `fused`, `fused_serial`, `lane_fused`, `serial`, `workersN` | — |
//! | `cycles` | integer | simulated cycles — deterministic | yes: >10% increase fails |
//! | `mcyc_per_s` | number \| null | simulated Mcycles per wall-clock second from a representative run | **no** — wall-clock, machine-dependent |
//! | `fused_coverage` | number \| null | `fused_cycles / cycles`, `null` off the fused tier | yes: >10% decrease fails |
//! | `lane_occupancy` | number \| null | `fused_lane_occupancy / fused_cycles`, `null` when nothing fused | yes: >10% decrease fails |
//! | `pass` | bool \| null | self-check verdict (conformance rows) | yes: `true` → `false` fails |
//! | `jobs_per_s` | number \| null | end-to-end jobs per wall-clock second (service rows) | **no** — wall-clock, machine-dependent |
//! | `p50_ms` | number \| null | median client-observed job latency, milliseconds | **no** — wall-clock, machine-dependent |
//! | `p99_ms` | number \| null | 99th-percentile client-observed job latency, milliseconds | **no** — wall-clock, machine-dependent |
//! | `preemptions` | integer \| null | scheduler preemption events (scripted service runs) | yes: any shift beyond 10% either way fails |
//! | `rejected` | integer \| null | admission rejections at a fixed offered load (scripted) | yes: any shift beyond 10% either way fails |
//!
//! Wall-clock-free metrics (`cycles`, `fused_coverage`,
//! `lane_occupancy`, `pass`, `preemptions`, `rejected`) are
//! deterministic for a given tree, which is what makes the checked-in
//! baselines comparable in CI; `mcyc_per_s`, `jobs_per_s`, `p50_ms` and
//! `p99_ms` are recorded so the generated EXPERIMENTS.md tables have
//! throughput/latency columns, but are never compared (DESIGN.md §13).
//!
//! The five service fields (`jobs_per_s` through `rejected`) are an
//! additive change: they are *omitted* from the emitted JSON — not
//! written as `null` — whenever unmeasured, so suites that predate them
//! keep emitting byte-identical files, and the parser treats a missing
//! key as `None`.
//!
//! # Version-bump policy
//!
//! `version` is a single integer, currently [`VERSION`] (= 2; version 1
//! was the ad-hoc `systolic-ring-conformance-v1` format this schema
//! replaced, and is rejected with `SR-B002`).
//!
//! * **No bump — compatible change.** Adding a new field (parsers ignore
//!   unknown keys), dropping an optional one (parsers read a missing
//!   optional field as `None`), adding a new suite file, or adding
//!   records/tiers to an existing suite.
//! * **Bump — breaking change.** Removing or renaming a required field,
//!   changing a field's type or units, or changing the meaning of an existing
//!   metric (e.g. what counts as a fused cycle). After a bump the
//!   comparator rejects older files with `SR-B003`; regenerate every
//!   checked-in `BENCH_*.json` in the same commit that bumps
//!   [`VERSION`].
//!
//! # Error codes
//!
//! Parsing rejects bad input with a stable [`RecordError::code`]:
//! `SR-B001` (malformed JSON), `SR-B002` (wrong or legacy schema name),
//! `SR-B003` (unsupported version), `SR-B004` (missing or ill-typed
//! field). The comparator's own codes (`SR-B1xx`) live in
//! [`crate::compare`].

use std::fmt;

use systolic_ring_server::protocol::json_string;
use systolic_ring_server::Json;

use systolic_ring_harness::conformance::ConformanceReport;
use systolic_ring_isa::RingGeometry;

/// Schema identifier written into (and demanded from) every file.
pub const SCHEMA: &str = "systolic-ring-bench";

/// Current schema version (see the module docs for the bump policy).
pub const VERSION: u64 = 2;

/// One benchmark measurement: a `(workload, tier)` row of a suite.
///
/// Field semantics and gating rules are tabulated in the
/// [module docs](self).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchRecord {
    /// Stable workload identifier — half of the comparator's join key.
    pub workload: String,
    /// Ring-shape label (see [`geometry_label`]); informational.
    pub geometry: String,
    /// Execution-tier label — the other half of the join key.
    pub tier: String,
    /// Simulated cycles (deterministic; regression-gated).
    pub cycles: u64,
    /// Simulated Mcycles per wall-clock second from a representative
    /// run; `None` when the run was not timed. Never gated.
    pub mcyc_per_s: Option<f64>,
    /// Fraction of cycles executed inside fused bursts; `None` where the
    /// fused engine was off or not applicable.
    pub fused_coverage: Option<f64>,
    /// Mean lanes per fused cycle; `None` when nothing fused.
    pub lane_occupancy: Option<f64>,
    /// Self-check verdict (conformance and batch rows); `None` where the
    /// workload carries no embedded expectation.
    pub pass: Option<bool>,
    /// End-to-end jobs per wall-clock second (service rows); `None` when
    /// untimed. Never gated.
    pub jobs_per_s: Option<f64>,
    /// Median client-observed job latency in milliseconds; `None` when
    /// untimed. Never gated.
    pub p50_ms: Option<f64>,
    /// 99th-percentile client-observed job latency in milliseconds;
    /// `None` when untimed. Never gated.
    pub p99_ms: Option<f64>,
    /// Scheduler preemption events from a scripted (deterministic)
    /// service run; gated both ways — a shift means the scheduler
    /// changed behavior.
    pub preemptions: Option<u64>,
    /// Admission rejections at a fixed offered load (scripted,
    /// deterministic); gated both ways — fewer means the queue grew,
    /// more means capacity shrank.
    pub rejected: Option<u64>,
}

/// One `BENCH_*.json` document: a named suite of [`BenchRecord`]s under
/// the versioned header.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchFile {
    /// Suite name, e.g. `table1_motion` or `conformance`.
    pub suite: String,
    /// The measurements, in deterministic (emission) order.
    pub records: Vec<BenchRecord>,
}

/// A stable-coded error from [`BenchFile::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordError {
    /// Stable error code (`SR-B001`..`SR-B004`; see the module docs).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl RecordError {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        RecordError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for RecordError {}

/// The canonical ring-shape label, e.g. `Ring-16 (4x4)`.
pub fn geometry_label(geometry: RingGeometry) -> String {
    format!(
        "Ring-{} ({}x{})",
        geometry.dnodes(),
        geometry.layers(),
        geometry.width()
    )
}

/// Formats an optional float at the schema's fixed 4-decimal precision
/// (fixed so that emit → parse → emit is byte-stable).
fn opt_f64(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.4}"),
        None => "null".into(),
    }
}

fn opt_bool(v: Option<bool>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".into(),
    }
}

impl BenchRecord {
    /// Emits the record as a single JSON object line (no trailing
    /// newline). The original eight fields are always present, `null`
    /// when unmeasured, so the file documents its own shape; the
    /// service fields are omitted entirely when `None` so pre-service
    /// suites keep emitting byte-identical files.
    fn to_json_line(&self) -> String {
        let mut line = format!(
            "{{\"workload\": {}, \"geometry\": {}, \"tier\": {}, \
             \"cycles\": {}, \"mcyc_per_s\": {}, \"fused_coverage\": {}, \
             \"lane_occupancy\": {}, \"pass\": {}",
            json_string(&self.workload),
            json_string(&self.geometry),
            json_string(&self.tier),
            self.cycles,
            opt_f64(self.mcyc_per_s),
            opt_f64(self.fused_coverage),
            opt_f64(self.lane_occupancy),
            opt_bool(self.pass),
        );
        if let Some(v) = self.jobs_per_s {
            line.push_str(&format!(", \"jobs_per_s\": {v:.4}"));
        }
        if let Some(v) = self.p50_ms {
            line.push_str(&format!(", \"p50_ms\": {v:.4}"));
        }
        if let Some(v) = self.p99_ms {
            line.push_str(&format!(", \"p99_ms\": {v:.4}"));
        }
        if let Some(v) = self.preemptions {
            line.push_str(&format!(", \"preemptions\": {v}"));
        }
        if let Some(v) = self.rejected {
            line.push_str(&format!(", \"rejected\": {v}"));
        }
        line.push('}');
        line
    }
}

impl BenchFile {
    /// Serializes the suite: versioned header, one record per line.
    ///
    /// The output is deterministic and fixed-precision, so emit → parse
    /// → emit round-trips byte-identically — which is what lets the
    /// generated EXPERIMENTS.md tables and the checked-in baselines stay
    /// diffable.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .records
            .iter()
            .map(|r| format!("    {}", r.to_json_line()))
            .collect();
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"version\": {},\n  \"suite\": {},\n  \
             \"records\": [\n{}\n  ]\n}}\n",
            SCHEMA,
            VERSION,
            json_string(&self.suite),
            rows.join(",\n")
        )
    }

    /// Parses a `BENCH_*.json` document, rejecting malformed JSON
    /// (`SR-B001`), foreign or legacy schemas (`SR-B002`), unsupported
    /// versions (`SR-B003`) and missing/ill-typed fields (`SR-B004`).
    /// Unknown keys are ignored (the additive-change rule).
    pub fn parse(text: &str) -> Result<BenchFile, RecordError> {
        let top = Json::parse(text).map_err(|e| RecordError::new("SR-B001", e))?;
        if !matches!(top, Json::Obj(_)) {
            return Err(RecordError::new("SR-B004", "top level is not an object"));
        }
        let schema = get_str(&top, "schema")?;
        if schema != SCHEMA {
            return Err(RecordError::new(
                "SR-B002",
                format!("schema is \"{schema}\", expected \"{SCHEMA}\" (legacy v1 files must be regenerated)"),
            ));
        }
        let version = get_u64(&top, "version")?;
        if version != VERSION {
            return Err(RecordError::new(
                "SR-B003",
                format!("unsupported schema version {version}, this build reads version {VERSION} — regenerate the baseline"),
            ));
        }
        let suite = get_str(&top, "suite")?.to_owned();
        let records_value = top
            .get("records")
            .ok_or_else(|| RecordError::new("SR-B004", "missing field `records`"))?;
        let rows = records_value
            .as_arr()
            .ok_or_else(|| RecordError::new("SR-B004", "`records` is not an array"))?;
        let mut records = Vec::with_capacity(rows.len());
        for (i, obj) in rows.iter().enumerate() {
            if !matches!(obj, Json::Obj(_)) {
                let message = format!("record {i} is not an object");
                return Err(RecordError::new("SR-B004", message));
            }
            records.push(BenchRecord {
                workload: get_str(obj, "workload")?.to_owned(),
                geometry: get_str(obj, "geometry")?.to_owned(),
                tier: get_str(obj, "tier")?.to_owned(),
                cycles: get_u64(obj, "cycles")?,
                mcyc_per_s: get_opt_f64(obj, "mcyc_per_s")?,
                fused_coverage: get_opt_f64(obj, "fused_coverage")?,
                lane_occupancy: get_opt_f64(obj, "lane_occupancy")?,
                pass: get_opt_bool(obj, "pass")?,
                jobs_per_s: get_opt_f64(obj, "jobs_per_s")?,
                p50_ms: get_opt_f64(obj, "p50_ms")?,
                p99_ms: get_opt_f64(obj, "p99_ms")?,
                preemptions: get_opt_u64(obj, "preemptions")?,
                rejected: get_opt_u64(obj, "rejected")?,
            });
        }
        Ok(BenchFile { suite, records })
    }

    /// The record for `(workload, tier)`, if present.
    pub fn find(&self, workload: &str, tier: &str) -> Option<&BenchRecord> {
        self.records
            .iter()
            .find(|r| r.workload == workload && r.tier == tier)
    }
}

/// Converts a conformance run into the shared record format — this is
/// what `srconform --json` writes as `BENCH_conformance.json`: one
/// record per `(program, tier)` with the program's simulated cycle count
/// and self-check verdict (`pass` folds in the case-level lint gate and
/// cross-tier equality checks).
pub fn conformance_file(report: &ConformanceReport) -> BenchFile {
    let mut records = Vec::new();
    for case in &report.cases {
        for tier in &case.tiers {
            records.push(BenchRecord {
                workload: case.name.clone(),
                geometry: geometry_label(case.geometry),
                tier: tier.tier.to_string(),
                cycles: tier.cycles,
                pass: Some(tier.passed() && case.failures.is_empty()),
                ..BenchRecord::default()
            });
        }
    }
    BenchFile {
        suite: "conformance".into(),
        records,
    }
}

fn get_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, RecordError> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| RecordError::new("SR-B004", format!("missing or non-string field `{key}`")))
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, RecordError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| RecordError::new("SR-B004", format!("missing or non-integer field `{key}`")))
}

fn get_opt_f64(obj: &Json, key: &str) -> Result<Option<f64>, RecordError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| RecordError::new("SR-B004", format!("field `{key}` is not a number"))),
    }
}

fn get_opt_u64(obj: &Json, key: &str) -> Result<Option<u64>, RecordError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| RecordError::new("SR-B004", format!("field `{key}` is not an integer"))),
    }
}

fn get_opt_bool(obj: &Json, key: &str) -> Result<Option<bool>, RecordError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(RecordError::new(
            "SR-B004",
            format!("field `{key}` is not a boolean"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchFile {
        BenchFile {
            suite: "table1_motion".into(),
            records: vec![
                BenchRecord {
                    workload: "table1_motion".into(),
                    geometry: geometry_label(RingGeometry::RING_16),
                    tier: "slow".into(),
                    cycles: 1113,
                    mcyc_per_s: Some(1.4412),
                    ..BenchRecord::default()
                },
                BenchRecord {
                    workload: "table1_motion".into(),
                    geometry: geometry_label(RingGeometry::RING_16),
                    tier: "fused".into(),
                    cycles: 1113,
                    mcyc_per_s: Some(3.3391),
                    fused_coverage: Some(0.5796),
                    lane_occupancy: Some(1.0),
                    pass: Some(true),
                    ..BenchRecord::default()
                },
            ],
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let file = sample();
        let json = file.to_json();
        let parsed = BenchFile::parse(&json).expect("parses");
        assert_eq!(parsed, file);
        assert_eq!(parsed.to_json(), json, "emit must be byte-stable");
    }

    #[test]
    fn header_fields_are_emitted() {
        let json = sample().to_json();
        assert!(json.contains("\"schema\": \"systolic-ring-bench\""));
        assert!(json.contains(&format!("\"version\": {VERSION}")));
        assert!(json.contains("\"suite\": \"table1_motion\""));
    }

    #[test]
    fn malformed_json_is_sr_b001() {
        let err = BenchFile::parse("{\"schema\": ").unwrap_err();
        assert_eq!(err.code, "SR-B001");
        let err = BenchFile::parse("{} trailing").unwrap_err();
        assert_eq!(err.code, "SR-B001");
    }

    #[test]
    fn legacy_v1_schema_is_sr_b002() {
        let legacy = "{\"schema\": \"systolic-ring-conformance-v1\", \"version\": 1, \
                      \"suite\": \"x\", \"records\": []}";
        let err = BenchFile::parse(legacy).unwrap_err();
        assert_eq!(err.code, "SR-B002");
        assert!(err.message.contains("legacy"), "{err}");
    }

    #[test]
    fn old_version_is_sr_b003() {
        let old = format!(
            "{{\"schema\": \"{SCHEMA}\", \"version\": 1, \"suite\": \"x\", \"records\": []}}"
        );
        let err = BenchFile::parse(&old).unwrap_err();
        assert_eq!(err.code, "SR-B003");
    }

    #[test]
    fn missing_field_is_sr_b004() {
        let bad = format!(
            "{{\"schema\": \"{SCHEMA}\", \"version\": {VERSION}, \"suite\": \"x\", \
             \"records\": [{{\"workload\": \"w\"}}]}}"
        );
        let err = BenchFile::parse(&bad).unwrap_err();
        assert_eq!(err.code, "SR-B004");
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let mut json = sample().to_json();
        json = json.replace(
            "\"tier\": \"slow\"",
            "\"tier\": \"slow\", \"future_field\": [1, {\"nested\": null}]",
        );
        let parsed = BenchFile::parse(&json).expect("additive change must parse");
        assert_eq!(parsed, sample());
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut file = sample();
        file.records[0].workload = "weird \"name\"\twith\\stuff\n".into();
        let parsed = BenchFile::parse(&file.to_json()).expect("parses");
        assert_eq!(parsed, file);
    }

    #[test]
    fn service_fields_are_omitted_when_unmeasured() {
        // The emitted lines must not mention the service keys at all, so
        // pre-service baselines stay byte-identical across regeneration.
        let json = sample().to_json();
        for key in ["jobs_per_s", "p50_ms", "p99_ms", "preemptions", "rejected"] {
            assert!(!json.contains(key), "unexpected `{key}` in:\n{json}");
        }
    }

    #[test]
    fn service_fields_round_trip_byte_identically() {
        let mut file = sample();
        file.records[1].jobs_per_s = Some(123.4567);
        file.records[1].p50_ms = Some(4.25);
        file.records[1].p99_ms = Some(19.5);
        file.records[1].preemptions = Some(3);
        file.records[1].rejected = Some(17);
        let json = file.to_json();
        let parsed = BenchFile::parse(&json).expect("parses");
        assert_eq!(parsed, file);
        assert_eq!(parsed.to_json(), json, "emit must be byte-stable");
    }

    #[test]
    fn find_joins_on_workload_and_tier() {
        let file = sample();
        assert!(file.find("table1_motion", "fused").is_some());
        assert!(file.find("table1_motion", "decoded").is_none());
        assert!(file.find("nope", "slow").is_none());
    }
}
