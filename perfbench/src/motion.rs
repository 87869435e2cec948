//! `paper_motion`: the paper's Table 1 workload at paper scale.
//!
//! Full-search block matching (8x8 block, ±8 displacement, Ring-16, the
//! default execution tier) over every 8x8 block of seeded QCIF frame
//! pairs, one block per `motion::block_match` call on one thread. Every
//! block's candidate SADs and argmin are checked against
//! `kernels::golden`. The block positions are fixed, so the simulated
//! work of a run depends on its length only, never on the seed.

use std::time::Instant;

use systolic_ring_asm::assemble;
use systolic_ring_baselines::mmx;
use systolic_ring_core::{MachineParams, RingMachine, Stats};
use systolic_ring_harness::testkit::TestRng;
use systolic_ring_isa::RingGeometry;
use systolic_ring_kernels::golden;
use systolic_ring_kernels::image::Image;
use systolic_ring_kernels::motion::{
    analytic_cycles, block_match, sad_units, BlockMatch, MotionEstimate,
};

use crate::measure::{
    median, median_us, push_e2e, quantile, ratio, split_windows, summarize, window_line, Report,
    Setups, Window,
};
use crate::span::{durations_ms, Tracer};
use crate::Args;

const GEOMETRY: RingGeometry = RingGeometry::RING_16;
/// QCIF luma, the H.261 picture size of the paper's video use case.
const FRAME_W: usize = 176;
const FRAME_H: usize = 144;
const BLOCKS_PER_FRAME: usize = (FRAME_W / 8) * (FRAME_H / 8);
/// Distinct seeded frame pairs; the run cycles through them.
const PAIRS: usize = 4;
/// Sizes the fixed work of a run from `--seconds`: blocks per host
/// second of the reference host (2 vCPU) in its slow state, so a run
/// takes about `--seconds` or less.
const NOMINAL_BLOCKS_PER_S: f64 = 500.0;
/// Blocks per window: a twelfth of a frame, about 50 ms.
const WINDOW_BLOCKS: usize = 33;
/// Blocks of a frame are visited at this stride (coprime with 396), so
/// every window mixes edge and interior blocks alike.
const BLOCK_STRIDE: usize = 97;
/// Interior blocks re-run under each execution tier in traced runs.
const TIER_SAMPLE: usize = 6;

struct Pair {
    reference: Image,
    current: Image,
}

/// The golden answer for one block.
struct Golden {
    candidates: Vec<(isize, isize, u32)>,
    best: (isize, isize),
    best_sad: u32,
}

fn block_specs() -> Vec<BlockMatch> {
    let mut specs = Vec::with_capacity(BLOCKS_PER_FRAME);
    for y in (0..FRAME_H).step_by(8) {
        for x in (0..FRAME_W).step_by(8) {
            specs.push(BlockMatch::paper_at(x, y));
        }
    }
    specs
}

/// Set-up: seeded frame pairs, the block list and one warm-up block.
fn setup(seed: u64) -> Result<(Vec<Pair>, Vec<BlockMatch>), String> {
    let mut rng = TestRng::new(seed);
    let pairs: Vec<Pair> = (0..PAIRS)
        .map(|_| {
            let dx = rng.range_i64(-6..7) as isize;
            let dy = rng.range_i64(-6..7) as isize;
            let (reference, current) = Image::motion_pair(FRAME_W, FRAME_H, dx, dy, rng.next_u64());
            Pair { reference, current }
        })
        .collect();
    let specs = block_specs();
    block_match(GEOMETRY, &pairs[0].reference, &pairs[0].current, specs[23])
        .map_err(|e| format!("warm-up block: {e}"))?;
    Ok((pairs, specs))
}

/// The golden SAD of every in-frame candidate (row-major displacement
/// order, as the kernel evaluates them) and the golden full-search
/// argmin.
fn golden_block(pair: &Pair, spec: BlockMatch) -> Golden {
    let (r, c) = (&pair.reference, &pair.current);
    let block = c.block(spec.x0, spec.y0, spec.block, spec.block);
    let mut candidates = Vec::new();
    for dy in -spec.range..=spec.range {
        for dx in -spec.range..=spec.range {
            let (cx, cy) = (spec.x0 as isize + dx, spec.y0 as isize + dy);
            if cx < 0
                || cy < 0
                || cx as usize + spec.block > r.width()
                || cy as usize + spec.block > r.height()
            {
                continue;
            }
            let cand = r.block(cx as usize, cy as usize, spec.block, spec.block);
            candidates.push((dx, dy, golden::sad(&block, &cand) as u32));
        }
    }
    let (bx, by, best_sad) = golden::full_search(
        r.data(),
        r.width(),
        r.height(),
        &block,
        spec.block,
        spec.block,
        spec.x0 as isize,
        spec.y0 as isize,
        spec.range,
    );
    Golden {
        candidates,
        best: (bx, by),
        best_sad: best_sad as u32,
    }
}

fn matches(est: &MotionEstimate, want: &Golden) -> bool {
    est.candidates == want.candidates && est.best == want.best && est.best_sad == want.best_sad
}

/// The controller program `block_match` assembles for a full interior
/// paper block on Ring-16, rebuilt here so the machine build and the
/// assembler can be timed on the workload's own shapes.
fn controller_source(candidates: usize) -> String {
    let units = sad_units(GEOMETRY);
    let rounds = candidates.div_ceil(units);
    let mut asm =
        format!(".code\n  addi r4, r0, {rounds}\nround_top:\n  ctx 1\n  wait 63\n  ctx 2\n");
    for u in 0..units {
        asm.push_str(&format!(
            "  ctx {}\n  nop\n  busr r2\n  sw r2, {u}(r3)\n",
            3 + u
        ));
    }
    asm.push_str(&format!(
        "  ctx {}\n  addi r3, r3, {units}\n  addi r4, r4, -1\n  bne r4, r0, round_top\n  halt\n",
        units + 3
    ));
    asm
}

pub fn run(args: &Args, tracer: &Tracer, process_start: Instant) -> Result<Report, String> {
    let frames = (args.seconds * NOMINAL_BLOCKS_PER_S / BLOCKS_PER_FRAME as f64).round() as usize;
    let total_blocks = if frames == 0 {
        FRAME_W / 8
    } else {
        frames * BLOCKS_PER_FRAME
    };
    let ((pairs, specs), mut setups) =
        Setups::first(process_start, total_blocks.div_ceil(WINDOW_BLOCKS), || {
            setup(args.seed)
        })?;

    // Reference outputs: computed after set-up and before timing.
    let golden: Vec<Vec<Golden>> = pairs
        .iter()
        .map(|pair| specs.iter().map(|&spec| golden_block(pair, spec)).collect())
        .collect();

    let mut report = Report::default();
    let mut windows: Vec<Window> = Vec::new();
    let mut merged = Stats::new(0);
    let mut sim_cycles = 0u64;
    let mut cycle_error = 0u64;
    let mut window = Window::default();
    let mut window_start = Instant::now();
    let mut window_start_ns = tracer.now_ns();
    for i in 0..total_blocks {
        // Traced runs trace every other window; the rest measure the
        // tracing overhead.
        let traced = windows.len().is_multiple_of(2);
        let frame = i / BLOCKS_PER_FRAME;
        let block = (i * BLOCK_STRIDE) % BLOCKS_PER_FRAME;
        let (pair, spec) = (&pairs[frame % PAIRS], specs[block]);
        let want = &golden[frame % PAIRS][block];
        let t = Instant::now();
        let result = tracer.span_if(traced, "kernels.motion.block_match", i as u64, || {
            block_match(GEOMETRY, &pair.reference, &pair.current, spec)
        });
        let ok = tracer.span_if(traced, "bench.verify", i as u64, || match &result {
            Ok(est) => matches(est, want),
            Err(_) => false,
        });
        window.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.attempted += 1;
        match result {
            Ok(est) if ok => {
                window.jobs += 1;
                window.cycles += est.cycles;
                sim_cycles += est.cycles;
                let model =
                    analytic_cycles(GEOMETRY, est.candidates.len(), spec.block * spec.block);
                cycle_error += est.cycles.abs_diff(model);
                merged.merge(&est.stats);
            }
            _ => report.failed += 1,
        }
        if (i + 1) % WINDOW_BLOCKS == 0 || i + 1 == total_blocks {
            window.wall_s = window_start.elapsed().as_secs_f64();
            window.span_ns = (window_start_ns, tracer.now_ns());
            windows.push(std::mem::take(&mut window));
            if setups.due(windows.len()) {
                setups.again(|| setup(args.seed))?;
            }
            window_start = Instant::now();
            window_start_ns = tracer.now_ns();
        }
    }

    // In traced runs only the untraced windows give the end-to-end
    // figures.
    let (traced, untraced) = split_windows(&windows, tracer.enabled());
    let t = summarize(&untraced);
    push_e2e(&mut report, setups.median_s(), &t, sim_cycles);
    report.lines.push(format!(
        "paper_motion: {} blocks ({} frame(s) of {}x{}, 8x8 blocks, ±8, {GEOMETRY}) in {} windows; \
         {} failed",
        total_blocks,
        frames.max(1),
        FRAME_W,
        FRAME_H,
        windows.len(),
        report.failed
    ));
    report
        .lines
        .push(t.latency_line("block (one block_match call and its golden check)"));
    report.lines.push(window_line(&untraced));
    report.lines.push(setups.line());
    reference_line(&mut report, &pairs, &specs, sim_cycles, cycle_error);

    if tracer.enabled() {
        layer_probes(&mut report, tracer, &pairs, &specs, &merged, cycle_error);
        report.trace_summary(tracer, &t, &traced, 1);
    }
    Ok(report)
}

/// The modelled design's reference figures: the cycle model's error and
/// the ring-vs-MMX cycle ratio on one interior paper block.
fn reference_line(report: &mut Report, pairs: &[Pair], specs: &[BlockMatch], sim: u64, error: u64) {
    let spec = specs[23];
    let (r, c) = (&pairs[0].reference, &pairs[0].current);
    let line = match block_match(GEOMETRY, r, c, spec) {
        Ok(ring) => {
            let mmx = mmx::full_search(r, c, spec);
            format!(
                "reference (simulated, not validated against real hardware): sim_cycles {sim}, \
                 model.motion.cycle_error {error} (|simulated - motion::analytic_cycles| summed \
                 over blocks), interior block: ring {} cycles vs MMX {} cycles = {:.2}x \
                 (paper: \"almost 8x\")",
                ring.cycles,
                mmx.cycles,
                ratio(mmx.cycles as f64, ring.cycles as f64)
            )
        }
        Err(e) => format!("reference block failed: {e}"),
    };
    report.lines.push(line);
}

fn layer_probes(
    report: &mut Report,
    tracer: &Tracer,
    pairs: &[Pair],
    specs: &[BlockMatch],
    merged: &Stats,
    cycle_error: u64,
) {
    let spans = tracer.spans();
    let block_ms = quantile(&durations_ms(&spans, "kernels.motion.block_match"), 0.5);
    report.layer("kernels.motion.block_ms", block_ms, "ms");

    let source = controller_source(289);
    let object = assemble(&source).expect("motion controller assembles");
    let params = MachineParams::PAPER
        .with_contexts(sad_units(GEOMETRY) + 4)
        .with_host_fifo_capacity(1 << 17);
    let assemble_us = median_us(200, || {
        tracer.span("asm.assemble", 0, || {
            std::hint::black_box(assemble(&source).is_ok())
        });
    });
    let build_us = median_us(200, || {
        tracer.span("core.machine.build", 0, || {
            let mut m = RingMachine::new(GEOMETRY, params);
            std::hint::black_box(m.load(&object).is_ok());
        });
    });
    report.layer("core.machine.build_us", build_us, "us");
    report.layer("asm.assemble_us", assemble_us, "us");
    report.core_counters(merged);

    // Interior blocks of the first pair, each re-run under every tier.
    let sample: Vec<BlockMatch> = specs
        .iter()
        .copied()
        .filter(|s| s.x0 >= 8 && s.y0 >= 8 && s.x0 + 16 <= FRAME_W && s.y0 + 16 <= FRAME_H)
        .step_by(37)
        .take(TIER_SAMPLE)
        .collect();
    let (r, c) = (&pairs[0].reference, &pairs[0].current);
    let tier_run = |name: &'static str| -> f64 {
        let per_block: Vec<f64> = sample
            .iter()
            .map(|&spec| {
                let t = Instant::now();
                let est = tracer.span(name, 0, || block_match(GEOMETRY, r, c, spec));
                let ns = t.elapsed().as_nanos() as f64;
                est.map(|e| ratio(ns, e.cycles as f64)).unwrap_or(0.0)
            })
            .collect();
        median(&per_block)
    };
    report.tier_layers(tier_run);
    report.layer("model.motion.cycle_error", cycle_error as f64, "cycles");
}
