//! Full-search block-matching motion estimation (Table 1 workload).
//!
//! The paper evaluates "matching a 8x8 reference block against its search
//! area of 8 pixels displacement" (H.261-style) on a Ring-16. This module
//! reproduces that computation end to end on the simulator, orchestrated by
//! an **assembled controller program** — the full paper tool flow.
//!
//! # Mapping
//!
//! SAD units are layer pairs: for unit `(p, l)` the Dnode at
//! `(layer 2p, lane l)` computes per-pixel `absd` on two host streams
//! (reference and candidate pixels) and the Dnode at `(layer 2p+1, lane l)`
//! accumulates. A `layers/2 x width` geometry therefore hosts
//! `units = (layers/2) * width` candidates in flight (Ring-16: 8), each
//! taking `block_pixels` cycles.
//!
//! # Dynamic reconfiguration schedule
//!
//! The controller cycles configuration contexts per round:
//!
//! | context   | role |
//! |-----------|------|
//! | 0         | idle (active at reset, while the controller sets up) |
//! | 1         | compute: `absd` + accumulate, one pixel/cycle/unit |
//! | 2         | finish: one extra accumulate for the in-flight last pixel |
//! | 3+u       | drain: unit `u`'s accumulator drives the shared bus |
//! | 3+units   | reset: accumulators and `absd` outputs cleared |
//!
//! The controller reads each SAD off the bus (`busr`) and stores it to its
//! data memory (`sw`); the host driver performs the argmin, exactly like
//! the host CPU in the paper's SoC usage model.

use systolic_ring_asm::assemble;
use systolic_ring_core::{MachineParams, RingMachine};
use systolic_ring_isa::dnode::{AluOp, MicroInstr, Operand, Reg};
use systolic_ring_isa::switch::PortSource;
use systolic_ring_isa::{RingGeometry, Word16};

use crate::image::Image;
use crate::{KernelError, KernelRun};

/// Parameters of one block-matching problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMatch {
    /// Top-left x of the tracked block in the current frame.
    pub x0: usize,
    /// Top-left y of the tracked block in the current frame.
    pub y0: usize,
    /// Block side in pixels (the paper uses 8).
    pub block: usize,
    /// Maximum displacement in pixels (the paper uses 8).
    pub range: isize,
}

impl BlockMatch {
    /// The paper's Table 1 configuration: 8x8 block, ±8 displacement.
    pub const PAPER: BlockMatch = BlockMatch {
        x0: 0,
        y0: 0,
        block: 8,
        range: 8,
    };

    /// The paper configuration centred at (`x0`, `y0`).
    pub fn paper_at(x0: usize, y0: usize) -> Self {
        BlockMatch {
            x0,
            y0,
            ..BlockMatch::PAPER
        }
    }
}

/// Result of a hardware block-matching run.
#[derive(Clone, Debug)]
pub struct MotionEstimate {
    /// Winning displacement.
    pub best: (isize, isize),
    /// Winning SAD.
    pub best_sad: u32,
    /// All evaluated `(dx, dy, sad)` candidates in evaluation order.
    pub candidates: Vec<(isize, isize, u32)>,
    /// Total clock cycles, controller setup and drains included.
    pub cycles: u64,
    /// Machine statistics.
    pub stats: systolic_ring_core::Stats,
}

/// Number of SAD units a geometry hosts (`layers/2 * width`).
pub fn sad_units(geometry: RingGeometry) -> usize {
    (geometry.layers() / 2) * geometry.width()
}

/// Closed-form cycle model of the hardware schedule, used for geometry
/// sweeps and cross-checked against simulation in the tests.
///
/// Per round: 1 (`ctx 0`) + `px-1` (`wait`) + 1 (finish) + `4*units`
/// (drain) + 1 (reset) + 3 (loop bookkeeping); plus 1 setup cycle and 1
/// halt.
pub fn analytic_cycles(geometry: RingGeometry, candidates: usize, block_pixels: usize) -> u64 {
    let units = sad_units(geometry);
    if units == 0 || candidates == 0 {
        return 0;
    }
    let rounds = candidates.div_ceil(units) as u64;
    let per_round = 1 + (block_pixels as u64 - 1) + 1 + 4 * units as u64 + 1 + 3;
    1 + rounds * per_round + 1
}

/// Runs full-search block matching for `spec` on the simulator.
///
/// `current` supplies the tracked block, `reference` the search area — the
/// H.261 usage where motion is estimated against the previous frame.
///
/// # Errors
///
/// Returns [`KernelError`] if the geometry has an odd layer count, the
/// block leaves the frame, or the machine faults.
pub fn block_match(
    geometry: RingGeometry,
    reference: &Image,
    current: &Image,
    spec: BlockMatch,
) -> Result<MotionEstimate, KernelError> {
    if !geometry.layers().is_multiple_of(2) {
        return Err(KernelError::DoesNotFit(format!(
            "{geometry} has an odd layer count; SAD units need layer pairs"
        )));
    }
    let units = sad_units(geometry);
    if units == 0 {
        return Err(KernelError::DoesNotFit("no SAD units".into()));
    }
    if units + 4 > 256 {
        return Err(KernelError::DoesNotFit(format!(
            "{units} SAD units exceed the 253-unit context budget"
        )));
    }
    let bs = spec.block;
    if bs == 0 || spec.x0 + bs > current.width() || spec.y0 + bs > current.height() {
        return Err(KernelError::BadParams(format!(
            "block {bs}x{bs} at ({}, {}) leaves the {}x{} frame",
            spec.x0,
            spec.y0,
            current.width(),
            current.height()
        )));
    }
    if reference.width() != current.width() || reference.height() != current.height() {
        return Err(KernelError::BadParams("frame size mismatch".into()));
    }
    let px = bs * bs;
    let block = current.block(spec.x0, spec.y0, bs, bs);

    // Enumerate in-frame candidates in row-major displacement order (the
    // golden model's tie-break order).
    let mut displacements = Vec::new();
    for dy in -spec.range..=spec.range {
        for dx in -spec.range..=spec.range {
            let cx = spec.x0 as isize + dx;
            let cy = spec.y0 as isize + dy;
            if cx < 0
                || cy < 0
                || cx as usize + bs > reference.width()
                || cy as usize + bs > reference.height()
            {
                continue;
            }
            displacements.push((dx, dy));
        }
    }
    if displacements.is_empty() {
        return Err(KernelError::BadParams("no in-frame candidates".into()));
    }
    let rounds = displacements.len().div_ceil(units);

    // ---- Machine and fabric configuration --------------------------------
    let params = MachineParams::PAPER
        .with_contexts(units + 4)
        .with_host_fifo_capacity(1 << 17);
    let mut m = RingMachine::new(geometry, params);
    // Context 0 is active at reset (while the controller sets up), so it
    // stays the all-NOP idle configuration; compute lives in context 1.
    let ctx_compute = 1usize;
    let ctx_finish = 2usize;
    let ctx_drain0 = 3usize;
    let ctx_reset = units + 3;

    for p in 0..geometry.layers() / 2 {
        for l in 0..geometry.width() {
            let u = p * geometry.width() + l;
            let absd = geometry.dnode_index(2 * p, l);
            let acc = geometry.dnode_index(2 * p + 1, l);
            let cfg = m.configure();
            // Compute context.
            cfg.set_port(
                ctx_compute,
                2 * p,
                l,
                0,
                PortSource::HostIn {
                    port: (2 * l) as u8,
                },
            )?;
            cfg.set_port(
                ctx_compute,
                2 * p,
                l,
                1,
                PortSource::HostIn {
                    port: (2 * l + 1) as u8,
                },
            )?;
            cfg.set_dnode_instr(
                ctx_compute,
                absd,
                MicroInstr::op(AluOp::AbsDiff, Operand::In1, Operand::In2).write_out(),
            )?;
            cfg.set_port(
                ctx_compute,
                2 * p + 1,
                l,
                0,
                PortSource::PrevOut { lane: l as u8 },
            )?;
            let accumulate =
                MicroInstr::op(AluOp::Add, Operand::Reg(Reg::R0), Operand::In1).write_reg(Reg::R0);
            cfg.set_dnode_instr(ctx_compute, acc, accumulate)?;
            // Finish context: one extra accumulate, no host reads.
            cfg.set_port(
                ctx_finish,
                2 * p + 1,
                l,
                0,
                PortSource::PrevOut { lane: l as u8 },
            )?;
            cfg.set_dnode_instr(ctx_finish, acc, accumulate)?;
            // Drain context for this unit.
            cfg.set_dnode_instr(
                ctx_drain0 + u,
                acc,
                MicroInstr::op(AluOp::PassA, Operand::Reg(Reg::R0), Operand::Zero).write_bus(),
            )?;
            // Reset context: clear accumulator and absd output.
            cfg.set_dnode_instr(
                ctx_reset,
                acc,
                MicroInstr::op(AluOp::PassA, Operand::Zero, Operand::Zero).write_reg(Reg::R0),
            )?;
            cfg.set_dnode_instr(
                ctx_reset,
                absd,
                MicroInstr::op(AluOp::PassA, Operand::Zero, Operand::Zero).write_out(),
            )?;
        }
    }

    // ---- Streams ----------------------------------------------------------
    // Unit u, round r handles candidate r*units + u; idle slots are padded
    // with zeros so every unit consumes exactly px words per round. A
    // candidate's pixels are copied row by row straight out of the frame.
    let frame = reference.data();
    let stride = reference.width();
    for p in 0..geometry.layers() / 2 {
        for l in 0..geometry.width() {
            let u = p * geometry.width() + l;
            let mut ref_stream = Vec::with_capacity(rounds * px);
            let mut cand_stream = Vec::with_capacity(rounds * px);
            for r in 0..rounds {
                let i = r * units + u;
                match displacements.get(i) {
                    Some(&(dx, dy)) => {
                        ref_stream.extend(block.iter().map(|&v| Word16::from_i16(v)));
                        let cx = (spec.x0 as isize + dx) as usize;
                        let cy = (spec.y0 as isize + dy) as usize;
                        for row in frame[cy * stride..].chunks(stride).take(bs) {
                            cand_stream
                                .extend(row[cx..cx + bs].iter().map(|&v| Word16::from_i16(v)));
                        }
                    }
                    None => {
                        ref_stream.extend(std::iter::repeat_n(Word16::ZERO, px));
                        cand_stream.extend(std::iter::repeat_n(Word16::ZERO, px));
                    }
                }
            }
            m.attach_input(2 * p, 2 * l, ref_stream)?;
            m.attach_input(2 * p, 2 * l + 1, cand_stream)?;
        }
    }

    // ---- Controller program -----------------------------------------------
    let mut asm = String::from(".code\n");
    asm.push_str(&format!("  addi r4, r0, {rounds}\n"));
    asm.push_str("round_top:\n");
    asm.push_str(&format!("  ctx {ctx_compute}\n"));
    asm.push_str(&format!("  wait {}\n", px - 1));
    asm.push_str(&format!("  ctx {ctx_finish}\n"));
    for u in 0..units {
        asm.push_str(&format!("  ctx {}\n", ctx_drain0 + u));
        asm.push_str("  nop\n");
        asm.push_str("  busr r2\n");
        asm.push_str(&format!("  sw r2, {u}(r3)\n"));
    }
    asm.push_str(&format!("  ctx {ctx_reset}\n"));
    asm.push_str(&format!("  addi r3, r3, {units}\n"));
    asm.push_str("  addi r4, r4, -1\n");
    asm.push_str("  bne r4, r0, round_top\n");
    asm.push_str("  halt\n");
    let object = assemble(&asm).map_err(|e| KernelError::BadParams(format!("asm: {e}")))?;
    m.load(&object)?;

    // ---- Run ----------------------------------------------------------------
    let budget = analytic_cycles(geometry, displacements.len(), px) * 2 + 1000;
    let cycles = m.run_until_halt(budget)?;

    // ---- Collect -------------------------------------------------------------
    let mut candidates = Vec::with_capacity(displacements.len());
    let mut best = (0isize, 0isize);
    let mut best_sad = u32::MAX;
    for (i, &(dx, dy)) in displacements.iter().enumerate() {
        let sad = m
            .controller()
            .dmem(i)
            .expect("dmem slot exists for every candidate");
        candidates.push((dx, dy, sad));
        if sad < best_sad {
            best_sad = sad;
            best = (dx, dy);
        }
    }
    Ok(MotionEstimate {
        best,
        best_sad,
        candidates,
        cycles,
        stats: m.stats().clone(),
    })
}

/// Convenience wrapper returning a [`KernelRun`]-shaped summary (SADs as
/// outputs) for harness code that treats all kernels uniformly.
pub fn block_match_run(
    geometry: RingGeometry,
    reference: &Image,
    current: &Image,
    spec: BlockMatch,
) -> Result<KernelRun, KernelError> {
    let est = block_match(geometry, reference, current, spec)?;
    Ok(KernelRun {
        outputs: est.candidates.iter().map(|&(_, _, s)| s as i16).collect(),
        cycles: est.cycles,
        stats: est.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden;

    /// A small problem that still exercises multiple rounds: 4x4 block,
    /// ±2 displacement on Ring-8 (4 SAD units).
    fn small_case() -> (Image, Image, BlockMatch) {
        let (reference, current) = Image::motion_pair(24, 24, 1, -1, 3);
        let spec = BlockMatch {
            x0: 8,
            y0: 8,
            block: 4,
            range: 2,
        };
        (reference, current, spec)
    }

    #[test]
    fn sads_match_golden_for_every_candidate() {
        let (reference, current, spec) = small_case();
        let est = block_match(RingGeometry::RING_8, &reference, &current, spec).unwrap();
        let block = current.block(spec.x0, spec.y0, spec.block, spec.block);
        for &(dx, dy, sad) in &est.candidates {
            let cx = (spec.x0 as isize + dx) as usize;
            let cy = (spec.y0 as isize + dy) as usize;
            let cand = reference.block(cx, cy, spec.block, spec.block);
            assert_eq!(
                sad as i32,
                golden::sad(&block, &cand),
                "candidate ({dx},{dy})"
            );
        }
        assert_eq!(est.candidates.len(), 25);
    }

    #[test]
    fn best_match_agrees_with_golden_full_search() {
        let (reference, current, spec) = small_case();
        let est = block_match(RingGeometry::RING_8, &reference, &current, spec).unwrap();
        let block = current.block(spec.x0, spec.y0, spec.block, spec.block);
        let (dx, dy, sad) = golden::full_search(
            reference.data(),
            reference.width(),
            reference.height(),
            &block,
            spec.block,
            spec.block,
            spec.x0 as isize,
            spec.y0 as isize,
            spec.range,
        );
        assert_eq!(est.best, (dx, dy));
        assert_eq!(est.best_sad as i32, sad);
        // The planted motion is (1, -1); tracking back finds (-1, 1).
        assert_eq!(est.best, (-1, 1));
    }

    #[test]
    fn cycle_count_matches_the_analytic_model() {
        let (reference, current, spec) = small_case();
        let est = block_match(RingGeometry::RING_8, &reference, &current, spec).unwrap();
        let predicted = analytic_cycles(RingGeometry::RING_8, est.candidates.len(), 16);
        assert_eq!(est.cycles, predicted);
    }

    #[test]
    fn wider_rings_take_fewer_cycles() {
        let (reference, current, spec) = small_case();
        let small = block_match(RingGeometry::RING_8, &reference, &current, spec).unwrap();
        let large = block_match(RingGeometry::RING_16, &reference, &current, spec).unwrap();
        assert_eq!(small.best, large.best);
        assert_eq!(small.best_sad, large.best_sad);
        assert!(large.cycles < small.cycles);
    }

    #[test]
    fn rejects_bad_geometry_and_params() {
        let (reference, current, spec) = small_case();
        let odd = RingGeometry::new(3, 2).unwrap();
        assert!(matches!(
            block_match(odd, &reference, &current, spec),
            Err(KernelError::DoesNotFit(_))
        ));
        let bad = BlockMatch {
            x0: 30,
            y0: 0,
            block: 4,
            range: 2,
        };
        assert!(matches!(
            block_match(RingGeometry::RING_8, &reference, &current, bad),
            Err(KernelError::BadParams(_))
        ));
    }

    #[test]
    fn analytic_model_shape() {
        // Ring-16: 8 units; paper problem: 289 candidates of 64 pixels.
        let cycles = analytic_cycles(RingGeometry::RING_16, 289, 64);
        let rounds = 289u64.div_ceil(8);
        // Per round: ctx + wait 63 + finish + 4*8 drain + reset + 3 loop.
        assert_eq!(cycles, 1 + rounds * (1 + 63 + 1 + 32 + 1 + 3) + 1);
        assert_eq!(analytic_cycles(RingGeometry::RING_16, 0, 64), 0);
    }

    #[test]
    fn edge_blocks_skip_out_of_frame_candidates() {
        let (reference, current) = Image::motion_pair(16, 16, 0, 0, 9);
        let spec = BlockMatch {
            x0: 0,
            y0: 0,
            block: 4,
            range: 3,
        };
        let est = block_match(RingGeometry::RING_8, &reference, &current, spec).unwrap();
        // Only non-negative displacements stay in frame.
        assert!(est.candidates.iter().all(|&(dx, dy, _)| dx >= 0 && dy >= 0));
        assert_eq!(est.candidates.len(), 16);
    }
}
