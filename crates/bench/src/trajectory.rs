//! The perf-trajectory suites: the deterministic workloads whose
//! [`crate::record::BenchFile`]s are checked in as `BENCH_*.json` and gated by
//! `srbench-compare` in CI.
//!
//! Five suites cover the repository's load-bearing performance claims:
//!
//! | suite | file | what it tracks |
//! |-------|------|----------------|
//! | `table1_motion` | `BENCH_table1_motion.json` | Table 1 motion estimation on slow/decoded/fused/aot tiers |
//! | `table2_wavelet` | `BENCH_table2_wavelet.json` | Table 2 wavelet 5/3 2-D on slow/decoded/fused/aot tiers |
//! | `fused` | `BENCH_fused.json` | 32-job `fir3.sr` lane-fusion sweep: decoded vs fused-serial vs lane-fused vs aot |
//! | `batch_scaling` | `BENCH_batch_scaling.json` | 36-job mixed kernel sweep, serial and 1/2/4 workers |
//! | `service` | `BENCH_service.json` | scripted multi-tenant service scenarios: packing, preemption, 2x-saturation backpressure (see [`crate::service`]) |
//!
//! (`BENCH_conformance.json`, the sixth baseline, is written by
//! `srconform` from the program corpus — same schema, different
//! producer.)
//!
//! Every suite runs each workload once to collect the wall-clock-free
//! metrics (simulated cycles, fused coverage, lane occupancy, deopts —
//! deterministic for a given tree) and, when a [`WallClock`] is given,
//! re-times it to fill the informational `mcyc_per_s` column. The
//! comparator never looks at `mcyc_per_s`, so a fresh gate run can skip
//! the timing loops entirely (`wall = None`) and stay fast.
//!
//! The `fused_coverage` column records the *combined compiled* coverage —
//! `(fused_cycles + aot_cycles) / cycles` — since single-machine bursts
//! count under `aot_*` on the `aot` tier and under `fused_*` elsewhere,
//! and the gated claim is "cycles not interpreted".
//!
//! [`experiments_md`] renders the generated EXPERIMENTS.md tables
//! (Extensions A8, A10, A11, A12 and A13) from the *checked-in* files,
//! so every number in those docs traces back to a `BENCH_*.json` in the
//! same tree.

use std::path::Path;

use systolic_ring_asm::assemble;
use systolic_ring_core::{with_aot, with_decode_cache, with_fused, MachineParams, Stats};
use systolic_ring_harness::job::{CycleBudget, Job};
use systolic_ring_harness::microbench::{black_box, measure};
use systolic_ring_harness::runner::BatchRunner;
use systolic_ring_isa::{RingGeometry, Word16};
use systolic_ring_kernels::batch::kernel_sweep;
use systolic_ring_kernels::image::Image;
use systolic_ring_kernels::motion::{self, BlockMatch};
use systolic_ring_kernels::wavelet;

use crate::record::{geometry_label, BenchFile, BenchRecord};
use crate::table::cycles as fmt_cycles;

/// Wall-clock measurement configuration for the `mcyc_per_s` column.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    /// Untimed warmup iterations per workload.
    pub warmup: u32,
    /// Timed iterations per workload (the median is recorded).
    pub iters: u32,
}

impl WallClock {
    /// CI-smoke settings: 1 warmup + 3 timed iterations.
    pub const QUICK: WallClock = WallClock {
        warmup: 1,
        iters: 3,
    };
    /// Baseline-regeneration settings: 2 warmup + 10 timed iterations,
    /// matching the `benches/` timers.
    pub const FULL: WallClock = WallClock {
        warmup: 2,
        iters: 10,
    };
}

/// The five trajectory suites and their checked-in baseline files.
pub const TRAJECTORY_FILES: [(&str, &str); 5] = [
    ("table1_motion", "BENCH_table1_motion.json"),
    ("table2_wavelet", "BENCH_table2_wavelet.json"),
    ("fused", "BENCH_fused.json"),
    ("batch_scaling", "BENCH_batch_scaling.json"),
    ("service", "BENCH_service.json"),
];

/// The conformance baseline (written by `srconform`, same schema).
pub const CONFORMANCE_FILE: &str = "BENCH_conformance.json";

/// Builds one tier record from a single-machine kernel run.
fn tier_record(
    workload: &str,
    geometry: RingGeometry,
    tier: &str,
    cycles: u64,
    stats: &Stats,
    compiled_tier: bool,
    median_secs: Option<f64>,
) -> BenchRecord {
    // The compiled claim spans both counters: with `aot` set,
    // single-machine bursts book `aot_cycles`, lockstep ones
    // `fused_cycles`.
    let compiled = stats.fused_cycles + stats.aot_cycles;
    let coverage = compiled_tier.then(|| compiled as f64 / cycles.max(1) as f64);
    let occupancy = (compiled_tier && stats.fused_cycles > 0)
        .then(|| stats.fused_lane_occupancy as f64 / stats.fused_cycles as f64);
    BenchRecord {
        workload: workload.into(),
        geometry: geometry_label(geometry),
        tier: tier.into(),
        cycles,
        mcyc_per_s: median_secs.map(|s| cycles as f64 / s / 1e6),
        fused_coverage: coverage,
        lane_occupancy: occupancy,
        deopts: compiled_tier.then_some(stats.fused_deopts),
        ..BenchRecord::default()
    }
}

/// A tier label paired with the closure that runs the kernel on it.
type TierRun<'a> = (&'a str, Box<dyn Fn() -> (u64, Stats) + 'a>);

/// Runs one kernel closure on the four execution tiers.
fn tier_sweep(
    workload: &str,
    geometry: RingGeometry,
    run: impl Fn() -> (u64, Stats),
    wall: Option<WallClock>,
) -> Vec<BenchRecord> {
    let tiers: [TierRun; 4] = [
        (
            "slow",
            Box::new(|| with_fused(false, || with_decode_cache(false, &run))),
        ),
        ("decoded", Box::new(|| with_fused(false, &run))),
        ("fused", Box::new(&run)),
        ("aot", Box::new(|| with_aot(true, &run))),
    ];
    tiers
        .iter()
        .map(|(tier, run_tier)| {
            let (cycles, stats) = run_tier();
            let median = wall.map(|w| {
                measure(w.warmup, w.iters, || black_box(run_tier()))
                    .median
                    .as_secs_f64()
            });
            tier_record(
                workload,
                geometry,
                tier,
                cycles,
                &stats,
                matches!(*tier, "fused" | "aot"),
                median,
            )
        })
        .collect()
}

/// The `table1_motion` suite: Table 1 full-search motion estimation
/// (8x8 block, ±4 displacement, 64x64 picture — the bench-sized spec)
/// on a Ring-16, across the slow, decoded, fused and aot tiers.
pub fn table1_motion(wall: Option<WallClock>) -> BenchFile {
    let (reference, current) = Image::motion_pair(64, 64, 2, -1, 2002);
    let spec = BlockMatch {
        x0: 28,
        y0: 28,
        block: 8,
        range: 4,
    };
    let run = move || {
        let r = motion::block_match_run(
            RingGeometry::RING_16,
            black_box(&reference),
            black_box(&current),
            spec,
        )
        .expect("ring motion estimation");
        (r.cycles, r.stats)
    };
    BenchFile {
        suite: "table1_motion".into(),
        records: tier_sweep("table1_motion", RingGeometry::RING_16, run, wall),
    }
}

/// The `table2_wavelet` suite: Table 2 one-level 2-D 5/3 lifting
/// wavelet of a 64x48 16-bit image on a Ring-16, across the four
/// tiers.
pub fn table2_wavelet(wall: Option<WallClock>) -> BenchFile {
    let image = Image::textured(64, 48, 53);
    let run = move || {
        let r = wavelet::forward_2d(RingGeometry::RING_16, black_box(&image))
            .expect("wavelet transform");
        (r.cycles, r.stats)
    };
    BenchFile {
        suite: "table2_wavelet".into(),
        records: tier_sweep("table2_wavelet", RingGeometry::RING_16, run, wall),
    }
}

/// The 32 identical `fir3.sr` jobs the runner's lane fusion targets
/// (input streams differ per job; everything else is shared).
fn fir3_sweep(fused: bool) -> (RingGeometry, Vec<Job>) {
    let source = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../programs/fir3.sr"),
    )
    .expect("shipped program");
    let object = assemble(&source).expect("fir3 assembles");
    let geometry = object.geometry.expect("declared ring");
    let jobs = (0..32)
        .map(|i| {
            Job::from_object(
                format!("fir3-{i}"),
                geometry,
                MachineParams::PAPER,
                object.clone(),
                CycleBudget::Cycles(16_384),
            )
            .with_input(0, 0, (0..256).map(|w| Word16::from_i16(w * 3 + i)))
            .with_sink(1, 0)
            .with_fused(fused)
        })
        .collect();
    (geometry, jobs)
}

/// One batch-runner record (total simulated cycles plus the merged
/// fused counters across every lane).
fn batch_record(
    workload: &str,
    geometry_name: String,
    tier: &str,
    runner: &BatchRunner,
    jobs: &[Job],
    pass: bool,
    wall: Option<WallClock>,
) -> BenchRecord {
    let summary = runner.run(jobs).summary();
    let compiled = summary.merged.fused_cycles + summary.merged.aot_cycles;
    let fused_on = summary.merged.fused_cycles > 0;
    let median = wall.map(|w| {
        measure(w.warmup, w.iters, || {
            black_box(runner.run(jobs)).summary().completed
        })
        .median
        .as_secs_f64()
    });
    BenchRecord {
        workload: workload.into(),
        geometry: geometry_name,
        tier: tier.into(),
        cycles: summary.total_cycles,
        mcyc_per_s: median.map(|s| summary.total_cycles as f64 / s / 1e6),
        fused_coverage: (compiled > 0)
            .then(|| compiled as f64 / summary.total_cycles.max(1) as f64),
        lane_occupancy: fused_on.then(|| {
            summary.merged.fused_lane_occupancy as f64 / summary.merged.fused_cycles as f64
        }),
        deopts: Some(summary.merged.fused_deopts),
        pass: Some(pass && summary.completed == summary.jobs),
        ..BenchRecord::default()
    }
}

/// The `fused` suite: the 32-job `fir3.sr` sweep on one worker, on the
/// decoded tier, the fused tier with lane fusion off (single-lane
/// bursts), the fused tier with up to 16-lane lockstep batching — the
/// lane-fusion gain isolated from thread parallelism — and the aot tier
/// (content-keyed superblock cache, lane fusion off so the gain over
/// `fused_serial` is the AOT compiler alone).
pub fn fused_batch(wall: Option<WallClock>) -> BenchFile {
    let (geometry, fused_jobs) = fir3_sweep(true);
    let (_, decoded_jobs) = fir3_sweep(false);
    let aot_jobs: Vec<Job> = fir3_sweep(true)
        .1
        .into_iter()
        .map(|j| j.with_aot(true))
        .collect();
    let lanes_on = BatchRunner::with_workers(1);
    let lanes_off = BatchRunner::with_workers(1).with_lane_fusion(false);
    let geometry_name = geometry_label(geometry);
    BenchFile {
        suite: "fused".into(),
        records: vec![
            batch_record(
                "batch32_fir3",
                geometry_name.clone(),
                "decoded",
                &lanes_off,
                &decoded_jobs,
                true,
                wall,
            ),
            batch_record(
                "batch32_fir3",
                geometry_name.clone(),
                "fused_serial",
                &lanes_off,
                &fused_jobs,
                true,
                wall,
            ),
            batch_record(
                "batch32_fir3",
                geometry_name.clone(),
                "lane_fused",
                &lanes_on,
                &fused_jobs,
                true,
                wall,
            ),
            batch_record(
                "batch32_fir3",
                geometry_name,
                "aot",
                &lanes_off,
                &aot_jobs,
                true,
                wall,
            ),
        ],
    }
}

/// The `batch_scaling` suite: the 36-job mixed kernel sweep run
/// serially and on 1/2/4 workers (fixed counts, so the baseline is
/// machine-independent), with bit-identical-to-serial verdicts in the
/// `pass` column.
pub fn batch_scaling(wall: Option<WallClock>) -> BenchFile {
    let sweep = kernel_sweep(0xba7c, 36);
    let serial = BatchRunner::run_serial(&sweep);
    let serial_summary = serial.summary();
    let mut records = Vec::new();
    let fused_on = serial_summary.merged.fused_cycles > 0;
    records.push(BenchRecord {
        workload: "batch36_mixed".into(),
        geometry: "mixed".into(),
        tier: "serial".into(),
        cycles: serial_summary.total_cycles,
        mcyc_per_s: wall.map(|_| {
            serial_summary.total_cycles as f64 / serial.wall.as_secs_f64().max(1e-9) / 1e6
        }),
        fused_coverage: fused_on.then(|| {
            serial_summary.merged.fused_cycles as f64 / serial_summary.total_cycles.max(1) as f64
        }),
        lane_occupancy: fused_on.then(|| {
            serial_summary.merged.fused_lane_occupancy as f64
                / serial_summary.merged.fused_cycles as f64
        }),
        deopts: Some(serial_summary.merged.fused_deopts),
        pass: Some(serial_summary.completed == serial_summary.jobs),
        ..BenchRecord::default()
    });
    for workers in [1usize, 2, 4] {
        let runner = BatchRunner::with_workers(workers);
        let matches = runner.run(&sweep).outcomes_match(&serial);
        records.push(batch_record(
            "batch36_mixed",
            "mixed".into(),
            &format!("workers{workers}"),
            &runner,
            &sweep,
            matches,
            wall,
        ));
    }
    BenchFile {
        suite: "batch_scaling".into(),
        records,
    }
}

/// Runs every trajectory suite, in [`TRAJECTORY_FILES`] order.
pub fn all_suites(wall: Option<WallClock>) -> Vec<BenchFile> {
    vec![
        table1_motion(wall),
        table2_wavelet(wall),
        fused_batch(wall),
        batch_scaling(wall),
        crate::service::suite(wall),
    ]
}

/// Runs one trajectory suite by name (`None` for an unknown name).
pub fn run_suite(suite: &str, wall: Option<WallClock>) -> Option<BenchFile> {
    match suite {
        "table1_motion" => Some(table1_motion(wall)),
        "table2_wavelet" => Some(table2_wavelet(wall)),
        "fused" => Some(fused_batch(wall)),
        "batch_scaling" => Some(batch_scaling(wall)),
        "service" => Some(crate::service::suite(wall)),
        _ => None,
    }
}

/// Human-facing row label for a trajectory workload.
fn workload_label(workload: &str) -> &str {
    match workload {
        "table1_motion" => "Table 1 motion estimation (8x8 block, ±4, 64x64, Ring-16)",
        "table2_wavelet" => "Table 2 wavelet 5/3 2-D (64x48, Ring-16)",
        "batch32_fir3" => "32-job `fir3.sr` sweep, lane-fused (1 worker, Ring-8)",
        "service_pack16" => "16 tenants, identical objects, one 16-lane lockstep group",
        "service_preempt" => "4 interactive bursts preempting a 4096-cycle batch job",
        "service_saturate2x" => "2x-saturating offered load vs bounded queue (cap 8, quota 2)",
        other => other,
    }
}

fn mcyc(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.2}"),
        None => "—".into(),
    }
}

fn speedup(fast: Option<f64>, slow: Option<f64>) -> String {
    match (fast, slow) {
        (Some(f), Some(s)) if s > 0.0 => format!("**{:.2}x**", f / s),
        _ => "—".into(),
    }
}

fn coverage(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{:.0}%", v * 100.0),
        None => "—".into(),
    }
}

fn occupancy(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.2}"),
        None => "—".into(),
    }
}

fn load(dir: &Path, name: &str) -> Result<BenchFile, String> {
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    BenchFile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Renders the generated EXPERIMENTS.md tables (Extensions A8, A10, A11,
/// A12 and A13) from the checked-in `BENCH_*.json` baselines under `dir`.
///
/// The output is a pure function of the baseline files, and
/// EXPERIMENTS.md must contain each block byte-identically —
/// `crates/bench/tests/trajectory.rs` enforces that, which is what makes
/// the doc tables regenerated-from-JSON rather than hand-transcribed.
pub fn experiments_md(dir: &Path) -> Result<String, String> {
    let motion = load(dir, "BENCH_table1_motion.json")?;
    let wavelet_f = load(dir, "BENCH_table2_wavelet.json")?;
    let fused_f = load(dir, "BENCH_fused.json")?;
    let scaling = load(dir, "BENCH_batch_scaling.json")?;
    let service = load(dir, "BENCH_service.json")?;

    let regen = "Regenerate: `cargo run --release -p systolic-ring-bench --bin report -- json .` \
                 then `report -- experiments-md`";
    let mut out = String::new();

    // A8 — decode cache: decoded vs slow.
    out.push_str("<!-- begin generated table: A8 (report -- experiments-md) -->\n");
    out.push_str(
        "| workload | simulated cycles | cached Mcyc/s | uncached Mcyc/s | speedup |\n\
         |---|---|---|---|---|\n",
    );
    for file in [&motion, &wavelet_f] {
        for record in &file.records {
            if record.tier != "decoded" {
                continue;
            }
            let slow = file.find(&record.workload, "slow");
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} |\n",
                workload_label(&record.workload),
                fmt_cycles(record.cycles),
                mcyc(record.mcyc_per_s),
                mcyc(slow.and_then(|s| s.mcyc_per_s)),
                speedup(record.mcyc_per_s, slow.and_then(|s| s.mcyc_per_s)),
            ));
        }
    }
    out.push_str(&format!(
        "\n{regen} (decoded vs slow tiers of `BENCH_table1_motion.json` + \
         `BENCH_table2_wavelet.json`).\n"
    ));
    out.push_str("<!-- end generated table: A8 -->\n\n");

    // A10 — fused engine: fused vs decoded, plus the lane-fused batch.
    out.push_str("<!-- begin generated table: A10 (report -- experiments-md) -->\n");
    out.push_str(
        "| workload (fused vs decoded) | simulated cycles | fused Mcyc/s | decoded Mcyc/s | \
         speedup | coverage | lanes | deopts |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for file in [&motion, &wavelet_f] {
        for record in &file.records {
            if record.tier != "fused" {
                continue;
            }
            let decoded = file.find(&record.workload, "decoded");
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
                workload_label(&record.workload),
                fmt_cycles(record.cycles),
                mcyc(record.mcyc_per_s),
                mcyc(decoded.and_then(|d| d.mcyc_per_s)),
                speedup(record.mcyc_per_s, decoded.and_then(|d| d.mcyc_per_s)),
                coverage(record.fused_coverage),
                occupancy(record.lane_occupancy),
                record.deopts.map_or("—".into(), |d| d.to_string()),
            ));
        }
    }
    if let Some(lane_fused) = fused_f.find("batch32_fir3", "lane_fused") {
        let decoded = fused_f.find("batch32_fir3", "decoded");
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
            workload_label(&lane_fused.workload),
            fmt_cycles(lane_fused.cycles),
            mcyc(lane_fused.mcyc_per_s),
            mcyc(decoded.and_then(|d| d.mcyc_per_s)),
            speedup(lane_fused.mcyc_per_s, decoded.and_then(|d| d.mcyc_per_s)),
            coverage(lane_fused.fused_coverage),
            occupancy(lane_fused.lane_occupancy),
            lane_fused.deopts.map_or("—".into(), |d| d.to_string()),
        ));
    }
    out.push_str(&format!(
        "\n{regen} (fused vs decoded tiers of `BENCH_table1_motion.json` / \
         `BENCH_table2_wavelet.json` / `BENCH_fused.json`).\n"
    ));
    out.push_str("<!-- end generated table: A10 -->\n\n");

    // A11 — the trajectory itself: batch scaling records.
    out.push_str("<!-- begin generated table: A11 (report -- experiments-md) -->\n");
    out.push_str(
        "| batch configuration (36 mixed kernel jobs) | simulated cycles | Mcyc/s | coverage | \
         lanes | bit-identical |\n\
         |---|---|---|---|---|---|\n",
    );
    for record in &scaling.records {
        let label = match record.tier.as_str() {
            "serial" => "serial baseline".to_owned(),
            other => other.replacen("workers", "", 1) + " worker(s)",
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            label,
            fmt_cycles(record.cycles),
            mcyc(record.mcyc_per_s),
            coverage(record.fused_coverage),
            occupancy(record.lane_occupancy),
            match record.pass {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "—",
            },
        ));
    }
    out.push_str(&format!(
        "\n{regen} (all tiers of `BENCH_batch_scaling.json`).\n"
    ));
    out.push_str("<!-- end generated table: A11 -->\n\n");

    // A12 — the multi-tenant service: scripted scheduler scenarios.
    out.push_str("<!-- begin generated table: A12 (report -- experiments-md) -->\n");
    out.push_str(
        "| service scenario (scripted, deterministic) | simulated cycles | lanes | preemptions | \
         rejected | jobs/s | p50 ms | p99 ms | pass |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for record in &service.records {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            workload_label(&record.workload),
            fmt_cycles(record.cycles),
            occupancy(record.lane_occupancy),
            record.preemptions.map_or("—".into(), |v| v.to_string()),
            record.rejected.map_or("—".into(), |v| v.to_string()),
            mcyc(record.jobs_per_s),
            mcyc(record.p50_ms),
            mcyc(record.p99_ms),
            match record.pass {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "—",
            },
        ));
    }
    out.push_str(&format!(
        "\n{regen} (the `scripted` tier of `BENCH_service.json`; jobs/s and latency \
         percentiles are wall-clock, never gated).\n"
    ));
    out.push_str("<!-- end generated table: A12 -->\n\n");

    // A13 — the AOT tier: aot vs decoded and vs fused, with the
    // combined compiled coverage the gate tracks.
    out.push_str("<!-- begin generated table: A13 (report -- experiments-md) -->\n");
    out.push_str(
        "| workload (aot tier) | simulated cycles | aot Mcyc/s | decoded Mcyc/s | \
         vs decoded | fused Mcyc/s | vs fused | compiled coverage | deopts |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    let fused_label = |workload: &str| match workload {
        "batch32_fir3" => "fused_serial",
        _ => "fused",
    };
    for file in [&motion, &wavelet_f, &fused_f] {
        for record in &file.records {
            if record.tier != "aot" {
                continue;
            }
            let decoded = file.find(&record.workload, "decoded");
            let fused = file.find(&record.workload, fused_label(&record.workload));
            let label = match record.workload.as_str() {
                "batch32_fir3" => "32-job `fir3.sr` sweep (1 worker, no lane fusion, Ring-8)",
                other => workload_label(other),
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
                label,
                fmt_cycles(record.cycles),
                mcyc(record.mcyc_per_s),
                mcyc(decoded.and_then(|d| d.mcyc_per_s)),
                speedup(record.mcyc_per_s, decoded.and_then(|d| d.mcyc_per_s)),
                mcyc(fused.and_then(|d| d.mcyc_per_s)),
                speedup(record.mcyc_per_s, fused.and_then(|d| d.mcyc_per_s)),
                coverage(record.fused_coverage),
                record.deopts.map_or("—".into(), |d| d.to_string()),
            ));
        }
    }
    out.push_str(&format!(
        "\n{regen} (the `aot` rows of `BENCH_table1_motion.json` / \
         `BENCH_table2_wavelet.json` / `BENCH_fused.json`; coverage on the aot \
         rows is combined `(fused_cycles + aot_cycles) / cycles`).\n"
    ));
    out.push_str("<!-- end generated table: A13 -->\n");

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_suite_covers_the_four_tiers_deterministically() {
        let a = table1_motion(None);
        let b = table1_motion(None);
        assert_eq!(a, b, "wall-free records must be deterministic");
        assert_eq!(a.suite, "table1_motion");
        let tiers: Vec<&str> = a.records.iter().map(|r| r.tier.as_str()).collect();
        assert_eq!(tiers, ["slow", "decoded", "fused", "aot"]);
        assert!(a.records.iter().all(|r| r.cycles > 0));
        assert!(
            a.records.iter().all(|r| r.cycles == a.records[0].cycles),
            "tiers must agree on simulated cycles"
        );
        assert!(a.records.iter().all(|r| r.mcyc_per_s.is_none()));
        let fused = a.find("table1_motion", "fused").unwrap();
        assert!(fused.fused_coverage.unwrap() > 0.0);
        assert_eq!(fused.deopts, Some(0));
        // The aot column runs exactly what the fused tier runs; only its
        // counters differ.
        let aot = a.find("table1_motion", "aot").unwrap();
        assert!(aot.fused_coverage.unwrap() >= fused.fused_coverage.unwrap() - 1e-9);
    }

    #[test]
    fn suite_lookup_rejects_unknown_names() {
        assert!(run_suite("nope", None).is_none());
    }
}
