//! Value-range pass (`RL-Vxxx`): a joined interval analysis over the
//! Q-format datapath.
//!
//! Every configured microinstruction — per-context and local-sequencer,
//! preloaded and runtime-written (when the walk recovered the word) — is
//! a *site*. Sites are iterated to a joint fixpoint over per-Dnode
//! register and output intervals, with widening to the full 16-bit range
//! once the exact iteration stops converging (an unbounded MAC loop is
//! exactly the case widening exists for). The analysis is deliberately
//! time-insensitive: it joins over every context and both execution
//! modes, so whatever the controller schedules, a dynamic value can never
//! leave the computed hull.
//!
//! A final classification pass re-evaluates each wrap-capable operation
//! over the stable intervals:
//!
//! * pre-wrap result provably inside `i16` → safe,
//! * provably *outside* → `RL-V003` (warning — the op can only wrap),
//! * straddling → `RL-V002` (info — may wrap; saturate or rescale).
//!
//! Saturating operations (`AddSat`, `MacSat`, `Abs`, …) never flag.

use std::collections::{BTreeMap, BTreeSet};

use systolic_ring_isa::dnode::{AluOp, MicroInstr, Operand};
use systolic_ring_isa::expect::Expectations;
use systolic_ring_isa::proof::OutRange;
use systolic_ring_isa::switch::PortSource;

use crate::diag::{Diagnostic, Severity, Site};
use crate::model::{emit, ConfigModel};

use super::schedule::{ConfigEvent, HaltedPath};

/// Exact-iteration rounds before widening kicks in.
const WIDEN_AFTER: usize = 8;
/// Hard round cap (widened intervals are absorbing, so the fixpoint lands
/// well before this).
const MAX_ROUNDS: usize = 96;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Interval {
    lo: i64,
    hi: i64,
}

const FULL: Interval = Interval {
    lo: i16::MIN as i64,
    hi: i16::MAX as i64,
};
const ZERO: Interval = Interval { lo: 0, hi: 0 };

impl Interval {
    fn exact(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    fn clamp16(self) -> Interval {
        Interval {
            lo: self.lo.clamp(i16::MIN as i64, i16::MAX as i64),
            hi: self.hi.clamp(i16::MIN as i64, i16::MAX as i64),
        }
    }
}

/// Wrap classification of one evaluation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Wrap {
    /// The operation cannot wrap (or has no wrap semantics).
    Safe,
    /// The pre-wrap result straddles the 16-bit range.
    May,
    /// The pre-wrap result lies entirely outside the 16-bit range.
    Certain,
}

/// One configured microinstruction under analysis.
struct SiteInstr {
    /// `Some(ctx)` for a context slot, `None` for a local-sequencer slot.
    ctx: Option<usize>,
    dnode: usize,
    instr: MicroInstr,
}

/// A dynamic contribution to a resolved port operand.
#[derive(Clone, Copy)]
enum PortRef {
    /// The shared result bus.
    Bus,
    /// A producer Dnode's layer output (zero-extended by the warm-up
    /// base, so `PrevOut` and `Pipe` resolve identically).
    Out(usize),
}

/// Pre-resolved operand: route topology, host hulls and constants are
/// folded once, so the fixpoint only touches flat state.
enum Src {
    /// Fully constant over the whole fixpoint.
    Const(Interval),
    /// The shared result bus.
    Bus,
    /// The site's own register file, by index.
    Reg(usize),
    /// A routed port: the constant part (`base`) joined with the dynamic
    /// contributions (`refs`).
    Ports { base: Interval, refs: Vec<PortRef> },
}

/// Resolves a pre-planned operand against the current fixpoint state.
fn resolve(
    src: &Src,
    dnode: usize,
    out: &[Interval],
    regs: &[[Interval; 4]],
    bus: Interval,
) -> Interval {
    match *src {
        Src::Const(iv) => iv,
        Src::Bus => bus,
        Src::Reg(i) => regs[dnode][i],
        Src::Ports { base, ref refs } => refs.iter().fold(base, |iv, r| {
            iv.join(match *r {
                PortRef::Bus => bus,
                PortRef::Out(d) => out.get(d).copied().unwrap_or(ZERO),
            })
        }),
    }
}

/// Runs the pass; emits `RL-V002`/`RL-V003` (and `RL-V001` on a fully
/// proven object).
pub(crate) fn check(
    model: &ConfigModel,
    paths: &[HaltedPath],
    expectations: Option<&Expectations>,
    controller_drives_bus: bool,
    diags: &mut Vec<Diagnostic>,
) -> Vec<OutRange> {
    // ---- Collect sites, routes and taints -------------------------------
    let mut sites: Vec<SiteInstr> = Vec::new();
    let mut tainted: BTreeSet<usize> = BTreeSet::new();
    let mut routes: BTreeMap<(usize, usize, usize), Vec<PortSource>> = BTreeMap::new();
    let mut tainted_routes: BTreeSet<(usize, usize, usize)> = BTreeSet::new();

    for (&(ctx, dnode), &instr) in &model.dnode_instrs {
        sites.push(SiteInstr {
            ctx: Some(ctx),
            dnode,
            instr,
        });
    }
    for (&(dnode, _slot), &instr) in &model.local_slots {
        sites.push(SiteInstr {
            ctx: None,
            dnode,
            instr,
        });
    }
    for (&(_ctx, switch, lane, input), &source) in &model.routes {
        routes
            .entry((switch, lane, input))
            .or_default()
            .push(source);
    }
    for path in paths {
        for ev in &path.events {
            match ev.event {
                ConfigEvent::WriteDnode { ctx, dnode, word } => {
                    match word.and_then(|w| MicroInstr::decode(w).ok()) {
                        Some(instr) => sites.push(SiteInstr {
                            ctx: Some(ctx),
                            dnode,
                            instr,
                        }),
                        None => {
                            tainted.insert(dnode);
                        }
                    }
                }
                ConfigEvent::WriteLocalSlot { dnode, word, .. } => {
                    match word.and_then(|w| MicroInstr::decode(w).ok()) {
                        Some(instr) => sites.push(SiteInstr {
                            ctx: None,
                            dnode,
                            instr,
                        }),
                        None => {
                            tainted.insert(dnode);
                        }
                    }
                }
                ConfigEvent::WritePort {
                    switch,
                    lane,
                    input,
                    word,
                    ..
                } => match word.and_then(|w| PortSource::decode(w).ok()) {
                    Some(source) => routes
                        .entry((switch, lane, input))
                        .or_default()
                        .push(source),
                    None => {
                        tainted_routes.insert((switch, lane, input));
                    }
                },
                _ => {}
            }
        }
    }
    sites.retain(|s| s.instr != MicroInstr::NOP);

    let dnodes: BTreeSet<usize> = sites
        .iter()
        .map(|s| s.dnode)
        .chain(tainted.iter().copied())
        .collect();

    // Host-input hulls from the embedded expectations (FIFO underflow
    // reads zero, so the hull always includes it).
    let mut host: BTreeMap<(usize, usize), Interval> = BTreeMap::new();
    if let Some(exp) = expectations {
        for input in &exp.inputs {
            let hull = input
                .words
                .iter()
                .fold(ZERO, |acc, &w| acc.join(Interval::exact(w.into())));
            host.entry((input.switch, input.port))
                .and_modify(|h| *h = h.join(hull))
                .or_insert(hull);
        }
    }

    // ---- Operand resolution ---------------------------------------------
    // Routes, host hulls and geometry are static over the fixpoint, so
    // each site's operands resolve once; the rounds below touch nothing
    // but flat per-dnode state.
    let plans: Vec<(Src, Src)> = sites
        .iter()
        .map(|site| {
            (
                plan_operand(
                    site,
                    site.instr.src_a,
                    model,
                    &routes,
                    &tainted_routes,
                    &host,
                ),
                plan_operand(
                    site,
                    site.instr.src_b,
                    model,
                    &routes,
                    &tainted_routes,
                    &host,
                ),
            )
        })
        .collect();

    // ---- Fixpoint -------------------------------------------------------
    let state_len = dnodes.iter().max().map_or(0, |&d| d + 1);
    let mut out = vec![ZERO; state_len];
    let mut regs = vec![[ZERO; 4]; state_len];
    for &d in &tainted {
        out[d] = FULL;
        regs[d] = [FULL; 4];
    }
    let mut bus = if controller_drives_bus { FULL } else { ZERO };

    for round in 0..MAX_ROUNDS {
        let widen = round >= WIDEN_AFTER;
        let mut changed = false;
        let join_into = |slot: &mut Interval, v: Interval, changed: &mut bool| {
            let joined = slot.join(v);
            if joined != *slot {
                *slot = if widen { FULL } else { joined };
                *changed = true;
            }
        };
        for (site, plan) in sites.iter().zip(&plans) {
            let (result, _) = eval(site, plan, &out, &regs, bus);
            if let Some(r) = site.instr.wr_reg {
                join_into(&mut regs[site.dnode][r.index()], result, &mut changed);
            }
            if site.instr.wr_out {
                join_into(&mut out[site.dnode], result, &mut changed);
            }
            if site.instr.wr_bus {
                join_into(&mut bus, result, &mut changed);
            }
        }
        if !changed {
            break;
        }
    }

    // ---- Classification -------------------------------------------------
    let mut flagged: BTreeSet<(Option<usize>, usize, Wrap)> = BTreeSet::new();
    let mut wrap_capable = 0usize;
    for (site, plan) in sites.iter().zip(&plans) {
        // Only wrap-capable ops can classify as anything but `Safe`, so
        // everything else skips the re-evaluation outright.
        if !wrap_capable_op(site.instr.alu) {
            continue;
        }
        wrap_capable += 1;
        let (_, wrap) = eval(site, plan, &out, &regs, bus);
        if wrap != Wrap::Safe {
            flagged.insert((site.ctx, site.dnode, wrap));
        }
    }
    for &(ctx, dnode, wrap) in &flagged {
        let site = Site::Dnode { ctx, dnode };
        let op_desc = describe_ops(&sites, ctx, dnode);
        match wrap {
            Wrap::Certain => emit(
                diags,
                "RL-V003",
                Severity::Warning,
                site,
                format!(
                    "{op_desc} is statically certain to wrap: the exact result range \
                     lies entirely outside the 16-bit datapath"
                ),
                "the computed value is always the wrapped alias; use a saturating op \
                 or rescale the operands",
            ),
            Wrap::May => emit(
                diags,
                "RL-V002",
                Severity::Info,
                site,
                format!(
                    "{op_desc} may wrap: the proven operand ranges allow results \
                     outside the 16-bit datapath"
                ),
                "saturate, rescale, or bound the host input ranges if wrapping is \
                 unintended",
            ),
            Wrap::Safe => {}
        }
    }

    let all_proven = wrap_capable > 0 && flagged.is_empty() && tainted.is_empty();
    if all_proven {
        emit(
            diags,
            "RL-V001",
            Severity::Info,
            Site::Object,
            format!(
                "value-range: all {wrap_capable} wrap-capable datapath operation(s) \
                 proven overflow-free"
            ),
            "the proven per-dnode output ranges are recorded in the proof manifest",
        );
    }

    dnodes
        .iter()
        .map(|&dnode| OutRange {
            dnode: dnode as u16,
            lo: out[dnode].lo as i16,
            hi: out[dnode].hi as i16,
        })
        .collect()
}

/// Human tag for the flagged op(s) at one site.
fn describe_ops(sites: &[SiteInstr], ctx: Option<usize>, dnode: usize) -> String {
    let ops: BTreeSet<&str> = sites
        .iter()
        .filter(|s| s.ctx == ctx && s.dnode == dnode && wrap_capable_op(s.instr.alu))
        .map(|s| s.instr.alu.mnemonic())
        .collect();
    if ops.is_empty() {
        "a wrapping operation".to_owned()
    } else {
        format!(
            "wrapping `{}`",
            ops.into_iter().collect::<Vec<_>>().join("`/`")
        )
    }
}

/// Ops with wrap (as opposed to saturation or well-defined bit) semantics.
fn wrap_capable_op(op: AluOp) -> bool {
    matches!(
        op,
        AluOp::Add | AluOp::Sub | AluOp::Neg | AluOp::Shl | AluOp::Mul | AluOp::Mac | AluOp::Msu
    )
}

/// Evaluates one site over the current state; returns the (clamped)
/// result interval and the wrap classification.
fn eval(
    site: &SiteInstr,
    plan: &(Src, Src),
    out: &[Interval],
    regs: &[[Interval; 4]],
    bus: Interval,
) -> (Interval, Wrap) {
    let a = resolve(&plan.0, site.dnode, out, regs, bus);
    let b = resolve(&plan.1, site.dnode, out, regs, bus);
    let acc = site
        .instr
        .wr_reg
        .map_or(FULL, |r| regs[site.dnode][r.index()]);
    transfer(site.instr.alu, a, b, acc)
}

/// Resolves one operand selector to a pre-planned source.
fn plan_operand(
    site: &SiteInstr,
    op: Operand,
    model: &ConfigModel,
    routes: &BTreeMap<(usize, usize, usize), Vec<PortSource>>,
    tainted_routes: &BTreeSet<(usize, usize, usize)>,
    host: &BTreeMap<(usize, usize), Interval>,
) -> Src {
    match op {
        Operand::Zero => Src::Const(ZERO),
        Operand::One => Src::Const(Interval::exact(1)),
        Operand::Imm => Src::Const(Interval::exact(site.instr.imm.as_i16().into())),
        Operand::Bus => Src::Bus,
        Operand::Reg(r) => Src::Reg(r.index()),
        Operand::In1 | Operand::In2 | Operand::Fifo1 | Operand::Fifo2 => {
            let Some(g) = model.geometry else {
                return Src::Const(FULL);
            };
            let input = match op {
                Operand::In1 => 0,
                Operand::In2 => 1,
                Operand::Fifo1 => 2,
                _ => 3,
            };
            let (layer, lane) = g.dnode_position(site.dnode);
            // The switch feeding layer L is switch L (downstream_layer is
            // the identity).
            let key = (layer, lane, input);
            if tainted_routes.contains(&key) {
                return Src::Const(FULL);
            }
            let Some(sources) = routes.get(&key) else {
                // Reset routing is the constant zero.
                return Src::Const(ZERO);
            };
            // Warm-up / underflow zeros are always possible, so the base
            // starts at zero and every contribution (including `Pipe` and
            // `HostIn`, whose hulls the old code zero-extended explicitly)
            // joins against it.
            let mut base = ZERO;
            let mut refs = Vec::new();
            for &source in sources {
                match source {
                    PortSource::Zero => {}
                    PortSource::Bus => refs.push(PortRef::Bus),
                    PortSource::PrevOut { lane } => refs.push(PortRef::Out(
                        g.dnode_index(g.upstream_layer(layer), lane as usize),
                    )),
                    PortSource::Pipe { switch, lane, .. } => refs.push(PortRef::Out(
                        g.dnode_index(g.upstream_layer(switch as usize), lane as usize),
                    )),
                    PortSource::HostIn { port } => {
                        base =
                            base.join(host.get(&(layer, port as usize)).copied().unwrap_or(FULL));
                    }
                }
            }
            if refs.is_empty() {
                Src::Const(base)
            } else {
                Src::Ports { base, refs }
            }
        }
    }
}

/// Interval transfer function of one ALU operation.
///
/// Wrap-capable ops compute the exact pre-wrap corner interval in `i64`
/// and classify it against the 16-bit range; everything else is exact or
/// conservatively widened, and never flags.
fn transfer(op: AluOp, a: Interval, b: Interval, acc: Interval) -> (Interval, Wrap) {
    let wrapping = |corners: &[i64]| -> (Interval, Wrap) {
        let lo = corners.iter().copied().min().unwrap();
        let hi = corners.iter().copied().max().unwrap();
        if lo >= i16::MIN as i64 && hi <= i16::MAX as i64 {
            (Interval { lo, hi }, Wrap::Safe)
        } else if hi < i16::MIN as i64 || lo > i16::MAX as i64 {
            (FULL, Wrap::Certain)
        } else {
            (FULL, Wrap::May)
        }
    };
    let products = |a: Interval, b: Interval| [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
    let positive = |iv: Interval| iv.lo >= 0;
    match op {
        AluOp::Nop => (ZERO, Wrap::Safe),
        AluOp::PassA => (a, Wrap::Safe),
        AluOp::PassB => (b, Wrap::Safe),
        AluOp::Add => wrapping(&[a.lo + b.lo, a.hi + b.hi]),
        AluOp::Sub => wrapping(&[a.lo - b.hi, a.hi - b.lo]),
        AluOp::Neg => wrapping(&[-a.lo, -a.hi]),
        AluOp::Mul => wrapping(&products(a, b)),
        AluOp::Mac => {
            let p = products(a, b);
            wrapping(&[
                acc.lo + p.iter().min().unwrap(),
                acc.hi + p.iter().max().unwrap(),
            ])
        }
        AluOp::Msu => {
            let p = products(a, b);
            wrapping(&[
                acc.lo - p.iter().max().unwrap(),
                acc.hi - p.iter().min().unwrap(),
            ])
        }
        AluOp::Shl => {
            // Logical left shift by `b & 15`: exact when the shift count
            // is a known constant, else conservative.
            if b.lo == b.hi && (0..16).contains(&b.lo) {
                let k = b.lo as u32;
                wrapping(&[a.lo << k, a.hi << k])
            } else if a == ZERO {
                (ZERO, Wrap::Safe)
            } else {
                (FULL, Wrap::May)
            }
        }
        AluOp::AddSat => (
            Interval {
                lo: a.lo + b.lo,
                hi: a.hi + b.hi,
            }
            .clamp16(),
            Wrap::Safe,
        ),
        AluOp::SubSat => (
            Interval {
                lo: a.lo - b.hi,
                hi: a.hi - b.lo,
            }
            .clamp16(),
            Wrap::Safe,
        ),
        AluOp::MacSat => {
            let p = products(a, b);
            (
                Interval {
                    lo: acc.lo + p.iter().min().unwrap(),
                    hi: acc.hi + p.iter().max().unwrap(),
                }
                .clamp16(),
                Wrap::Safe,
            )
        }
        AluOp::Abs => {
            let iv = if a.lo >= 0 {
                a
            } else if a.hi <= 0 {
                Interval {
                    lo: -a.hi,
                    hi: -a.lo,
                }
            } else {
                Interval {
                    lo: 0,
                    hi: (-a.lo).max(a.hi),
                }
            };
            (iv.clamp16(), Wrap::Safe)
        }
        AluOp::AbsDiff => {
            let d = Interval {
                lo: a.lo - b.hi,
                hi: a.hi - b.lo,
            };
            let iv = if d.lo >= 0 {
                d
            } else if d.hi <= 0 {
                Interval {
                    lo: -d.hi,
                    hi: -d.lo,
                }
            } else {
                Interval {
                    lo: 0,
                    hi: (-d.lo).max(d.hi),
                }
            };
            (iv.clamp16(), Wrap::Safe)
        }
        AluOp::Not => (
            Interval {
                lo: -1 - a.hi,
                hi: -1 - a.lo,
            },
            Wrap::Safe,
        ),
        AluOp::And => {
            if positive(a) && positive(b) {
                (
                    Interval {
                        lo: 0,
                        hi: a.hi.min(b.hi),
                    },
                    Wrap::Safe,
                )
            } else {
                (FULL, Wrap::Safe)
            }
        }
        AluOp::Or | AluOp::Xor => {
            if positive(a) && positive(b) {
                let bits = 64 - (a.hi.max(b.hi) as u64).leading_zeros();
                let mask = ((1u64 << bits) - 1) as i64;
                (
                    Interval {
                        lo: 0,
                        hi: mask.min(i16::MAX as i64),
                    },
                    Wrap::Safe,
                )
            } else {
                (FULL, Wrap::Safe)
            }
        }
        AluOp::Shr => {
            let (klo, khi) = shift_range(b);
            if positive(a) {
                (
                    Interval {
                        lo: a.lo >> khi,
                        hi: a.hi >> klo,
                    },
                    Wrap::Safe,
                )
            } else if klo >= 1 {
                (
                    Interval {
                        lo: 0,
                        hi: 0xffff >> klo,
                    }
                    .clamp16(),
                    Wrap::Safe,
                )
            } else {
                (FULL, Wrap::Safe)
            }
        }
        AluOp::Asr => {
            let (klo, khi) = shift_range(b);
            let corners = [a.lo >> klo, a.lo >> khi, a.hi >> klo, a.hi >> khi];
            (
                Interval {
                    lo: *corners.iter().min().unwrap(),
                    hi: *corners.iter().max().unwrap(),
                },
                Wrap::Safe,
            )
        }
        AluOp::Min => (
            Interval {
                lo: a.lo.min(b.lo),
                hi: a.hi.min(b.hi),
            },
            Wrap::Safe,
        ),
        AluOp::Max => (
            Interval {
                lo: a.lo.max(b.lo),
                hi: a.hi.max(b.hi),
            },
            Wrap::Safe,
        ),
        AluOp::MinU => {
            if positive(a) && positive(b) {
                (
                    Interval {
                        lo: a.lo.min(b.lo),
                        hi: a.hi.min(b.hi),
                    },
                    Wrap::Safe,
                )
            } else {
                (FULL, Wrap::Safe)
            }
        }
        AluOp::MaxU => {
            if positive(a) && positive(b) {
                (
                    Interval {
                        lo: a.lo.max(b.lo),
                        hi: a.hi.max(b.hi),
                    },
                    Wrap::Safe,
                )
            } else {
                (FULL, Wrap::Safe)
            }
        }
        AluOp::Slt | AluOp::SltU => (Interval { lo: 0, hi: 1 }, Wrap::Safe),
        AluOp::MulHi => {
            let p = products(a, b);
            (
                Interval {
                    lo: p.iter().min().unwrap() >> 16,
                    hi: p.iter().max().unwrap() >> 16,
                },
                Wrap::Safe,
            )
        }
        AluOp::MulHiU => {
            if positive(a) && positive(b) {
                let p = products(a, b);
                (
                    Interval {
                        lo: p.iter().min().unwrap() >> 16,
                        hi: p.iter().max().unwrap() >> 16,
                    },
                    Wrap::Safe,
                )
            } else {
                (FULL, Wrap::Safe)
            }
        }
    }
}

/// Effective `b & 15` shift-count range.
fn shift_range(b: Interval) -> (u32, u32) {
    if b.lo >= 0 && b.hi <= 15 {
        (b.lo as u32, b.hi as u32)
    } else {
        (0, 15)
    }
}
