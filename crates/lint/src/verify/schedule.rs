//! Forking symbolic walk of the controller program (`RL-Txxx` evidence).
//!
//! Each path evaluates the ISA's own semantics (`CtrlInstr::exec`) over
//! values that are known or unknown (`Option<u32>`): a branch on unknown
//! data forks the walk, a `hpop` is modeled with a conservative
//! host-FIFO readiness clock, and every configuration-touching effect is
//! recorded with its retire cycle so the hazard and value-range passes
//! can replay the writes. When every path halts, the maximum path cycle
//! count is a sound upper bound on the halt cycle of any real execution,
//! and the last configuration event bounds the cycle from which the
//! fabric provably never changes again.
//!
//! Soundness notes:
//!
//! * `hpop` retires no earlier than `live_from + HPOP_READY_BASE + k` for
//!   the `k`-th pop of a port, where `live_from` is the cycle its capture
//!   first became armed *in the active context*. The base is calibrated
//!   above the fabric's warm-up latency and the bound is cross-checked
//!   dynamically by the conformance runner (bound must cover the actual
//!   halt cycle on every tier).
//! * A pop of a port whose capture may never be armed abandons the walk
//!   (on a fully concrete path it *proves* divergence instead).
//! * A fully concrete path that revisits an exact machine state at a
//!   backward jump proves the controller never halts.

use std::collections::{HashMap, HashSet};

use systolic_ring_isa::ctrl::{micro_word, split_port, split_slot, CReg, CtrlInstr, Exec};
use systolic_ring_isa::object::Object;

use crate::model::ConfigModel;
use crate::LintLimits;

/// Retired-instruction budget across all paths before the walk gives up.
const STEP_BUDGET: u64 = 200_000;

/// Fork budget: total paths the walk may spawn before giving up.
const MAX_PATHS: usize = 64;

/// Slack added to the last configuration event: a `ctx` select committed
/// on the final cycle becomes active one cycle later.
const SETTLE_SLACK: u64 = 2;

/// Host-output readiness base: the `k`-th word popped from an armed
/// capture is modeled as unavailable before cycle `live_from +
/// HPOP_READY_BASE + k`. Calibrated above the fabric's capture warm-up
/// latency; the conformance cross-check holds the resulting bound to
/// `actual <= bound <= 4 * actual` on every shipped program.
const HPOP_READY_BASE: u64 = 8;

/// A register or data-memory value on a path: `None` when unknown.
type Val = Option<u32>;

/// One configuration-touching effect, with unknown operands preserved as
/// `None` so consumers stay conservative.
#[derive(Clone, Debug)]
pub(crate) enum ConfigEvent {
    /// Dnode microinstruction write into context `ctx`.
    WriteDnode {
        ctx: usize,
        dnode: usize,
        word: Option<u64>,
    },
    /// Crossbar port write (flat index) into context `ctx`.
    WritePort {
        ctx: usize,
        switch: usize,
        lane: usize,
        input: usize,
        word: Option<u32>,
    },
    /// Host-capture selector write into context `ctx`.
    WriteCapture {
        ctx: usize,
        switch: usize,
        port: usize,
    },
    /// Dnode execution-mode flip (`None` = direction unknown).
    WriteMode { dnode: usize, local: Option<bool> },
    /// Local-sequencer slot write.
    WriteLocalSlot {
        dnode: usize,
        slot: usize,
        word: Option<u64>,
    },
    /// Local-sequencer limit write.
    WriteLocalLimit { dnode: usize, limit: Option<u32> },
    /// Active-context select.
    SetCtx { ctx: usize },
}

/// A [`ConfigEvent`] with its provenance: retire cycle, code address and
/// the context that was active when it issued.
#[derive(Clone, Debug)]
pub(crate) struct TimedEvent {
    pub cycle: u64,
    pub addr: usize,
    pub active_ctx: usize,
    pub event: ConfigEvent,
}

/// One halted execution path.
pub(crate) struct HaltedPath {
    /// Cycle at which `halt` retired on this path.
    pub cycles: u64,
    /// Configuration events in execution order.
    pub events: Vec<TimedEvent>,
    /// Cycle of the last configuration event (0 if none).
    pub last_config_cycle: u64,
}

/// Result of walking every path of the controller program.
pub(crate) enum WalkOutcome {
    /// Every path halted: the bounds below are sound for any execution.
    Complete {
        paths: Vec<HaltedPath>,
        /// Maximum halt cycle over all paths.
        max_cycles: u64,
        /// Cycle from which the configuration provably never changes.
        stable_from: u64,
    },
    /// Some path could not be followed to a halt; no bound is claimed.
    /// Paths that did halt are still reported for best-effort hazard
    /// analysis.
    Abandoned {
        reason: String,
        paths: Vec<HaltedPath>,
    },
    /// The controller provably never halts (exact state repetition or a
    /// pop of a never-armed port, on a fully concrete path).
    Diverges { reason: String, addr: usize },
}

struct Path {
    regs: [Val; 16],
    dmem: HashMap<u32, Val>,
    pc: u32,
    cycles: u64,
    cir: u16,
    wctx: usize,
    active_ctx: usize,
    /// Per-(switch, port) pop counts for the readiness clock.
    pops: HashMap<(usize, usize), u64>,
    /// Per-(switch, port) cycle the capture first became armed in the
    /// active context (`None` = never yet).
    live_from: HashMap<(usize, usize), u64>,
    /// Capture-selector overlay over the preload model, tracking `who`
    /// writes: `(ctx, switch, port) -> armed?`.
    capture_overlay: HashMap<(usize, usize, usize), bool>,
    events: Vec<TimedEvent>,
    last_config_cycle: u64,
    /// `true` once the path forked or consumed unknown data; disables
    /// the exact-state divergence proof.
    abstracted: bool,
    /// Backward-jump states seen on the still-concrete prefix.
    seen: HashSet<u64>,
}

impl Path {
    fn read(&self, r: CReg) -> Val {
        if r == CReg::ZERO {
            Some(0)
        } else {
            self.regs[r.index()]
        }
    }

    fn write(&mut self, r: CReg, v: Val) {
        if r != CReg::ZERO {
            self.regs[r.index()] = v;
        }
    }

    /// Word-mixed digest of the concrete machine state, for the
    /// divergence proof. Only called while the path is fully concrete —
    /// once per backward jump, so it mixes a word per step rather than a
    /// byte (same construction as `proof::object_hash`).
    fn state_key(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h = (h ^ v).rotate_left(23).wrapping_mul(0x517c_c1b7_2722_0a95);
        };
        mix(u64::from(self.pc));
        for r in &self.regs {
            mix(r.map_or(u64::MAX, u64::from));
        }
        let mut dmem: Vec<(u32, u32)> = self
            .dmem
            .iter()
            .map(|(&a, &v)| (a, v.unwrap_or(u32::MAX)))
            .collect();
        dmem.sort_unstable();
        for (a, v) in dmem {
            mix(u64::from(a));
            mix(u64::from(v));
        }
        mix(self.cir.into());
        mix(self.wctx as u64);
        mix(self.active_ctx as u64);
        h
    }

    /// Is the capture of `(switch, port)` armed in context `ctx`, under
    /// this path's overlay?
    fn armed_in(&self, model: &ConfigModel, ctx: usize, switch: usize, port: usize) -> bool {
        if let Some(&armed) = self.capture_overlay.get(&(ctx, switch, port)) {
            return armed;
        }
        model
            .captures
            .get(&(ctx, switch, port))
            .is_some_and(|c| c.selected().is_some())
    }

    /// Refreshes the per-port liveness clocks after an arming change or a
    /// context switch.
    fn refresh_live(&mut self, model: &ConfigModel, geometry_ports: &[(usize, usize)]) {
        for &(switch, port) in geometry_ports {
            if self.live_from.contains_key(&(switch, port)) {
                continue;
            }
            if self.armed_in(model, self.active_ctx, switch, port) {
                self.live_from.insert((switch, port), self.cycles);
            }
        }
    }

    fn record(&mut self, addr: usize, event: ConfigEvent) {
        self.last_config_cycle = self.cycles;
        self.events.push(TimedEvent {
            cycle: self.cycles,
            addr,
            active_ctx: self.active_ctx,
            event,
        });
    }
}

enum StepResult {
    Continue,
    Halted,
    Fork { taken: u32 },
    Abandon(String),
    Diverge { reason: String, addr: usize },
}

/// Walks every path of `object`'s controller program.
pub(crate) fn walk(object: &Object, limits: &LintLimits, model: &ConfigModel) -> WalkOutcome {
    if object.code.is_empty() {
        // The controller is halted from reset; the preload is the steady
        // state.
        return WalkOutcome::Complete {
            paths: vec![HaltedPath {
                cycles: 0,
                events: Vec::new(),
                last_config_cycle: 0,
            }],
            max_cycles: 0,
            stable_from: 0,
        };
    }

    // The walk revisits loop bodies many times and the decoder is pure,
    // so each program word decodes exactly once up front.
    let decoded: Vec<Option<CtrlInstr>> = object
        .code
        .iter()
        .map(|&word| CtrlInstr::decode(word).ok())
        .collect();

    // Every (switch, port) a capture could ever feed, for liveness
    // refresh. Derived from the model (preload) plus a pessimistic sweep
    // of `who` targets in the code.
    let mut ports: Vec<(usize, usize)> = model.captures.keys().map(|&(_, s, p)| (s, p)).collect();
    for instr in decoded.iter().flatten() {
        if let CtrlInstr::Who { switch, .. } = *instr {
            ports.push(split_port(switch));
        }
    }
    ports.sort_unstable();
    ports.dedup();

    let mut initial = Path {
        regs: [Some(0); 16],
        dmem: HashMap::new(),
        pc: 0,
        cycles: 0,
        cir: 0,
        wctx: 0,
        active_ctx: 0,
        pops: HashMap::new(),
        live_from: HashMap::new(),
        capture_overlay: HashMap::new(),
        events: Vec::new(),
        last_config_cycle: 0,
        abstracted: false,
        seen: HashSet::new(),
    };
    initial.refresh_live(model, &ports);

    let mut worklist = vec![initial];
    let mut halted: Vec<HaltedPath> = Vec::new();
    let mut spawned = 1usize;
    let mut steps = 0u64;

    while let Some(mut path) = worklist.pop() {
        loop {
            steps += 1;
            if steps > STEP_BUDGET {
                return WalkOutcome::Abandoned {
                    reason: format!("no halt within {STEP_BUDGET} traced instructions"),
                    paths: halted,
                };
            }
            match step(&mut path, object, &decoded, limits, model, &ports) {
                StepResult::Continue => {}
                StepResult::Halted => {
                    halted.push(HaltedPath {
                        cycles: path.cycles,
                        events: std::mem::take(&mut path.events),
                        last_config_cycle: path.last_config_cycle,
                    });
                    break;
                }
                StepResult::Fork { taken } => {
                    spawned += 2;
                    if spawned > MAX_PATHS {
                        return WalkOutcome::Abandoned {
                            reason: format!(
                                "data-dependent control flow forked more than {MAX_PATHS} paths"
                            ),
                            paths: halted,
                        };
                    }
                    let mut other = Path {
                        regs: path.regs,
                        dmem: path.dmem.clone(),
                        pc: taken,
                        cycles: path.cycles,
                        cir: path.cir,
                        wctx: path.wctx,
                        active_ctx: path.active_ctx,
                        pops: path.pops.clone(),
                        live_from: path.live_from.clone(),
                        capture_overlay: path.capture_overlay.clone(),
                        events: path.events.clone(),
                        last_config_cycle: path.last_config_cycle,
                        abstracted: true,
                        seen: HashSet::new(),
                    };
                    other.seen.clear();
                    path.abstracted = true;
                    path.seen.clear();
                    worklist.push(other);
                }
                StepResult::Abandon(reason) => {
                    return WalkOutcome::Abandoned {
                        reason,
                        paths: halted,
                    };
                }
                StepResult::Diverge { reason, addr } => {
                    return WalkOutcome::Diverges { reason, addr };
                }
            }
        }
    }

    let max_cycles = halted.iter().map(|p| p.cycles).max().unwrap_or(0);
    let last_config = halted
        .iter()
        .map(|p| p.last_config_cycle)
        .max()
        .unwrap_or(0);
    let stable_from = if halted.iter().any(|p| !p.events.is_empty()) {
        last_config + SETTLE_SLACK
    } else {
        0
    };
    WalkOutcome::Complete {
        paths: halted,
        max_cycles,
        stable_from,
    }
}

/// Executes one instruction on `path`: the ISA's `exec` for registers,
/// data memory and control flow, plus forking, config-event recording and
/// the `hpop` clock.
#[allow(clippy::too_many_lines)]
fn step(
    path: &mut Path,
    object: &Object,
    decoded: &[Option<CtrlInstr>],
    limits: &LintLimits,
    model: &ConfigModel,
    ports: &[(usize, usize)],
) -> StepResult {
    let Some(&slot) = decoded.get(path.pc as usize) else {
        return StepResult::Abandon(format!("pc {} leaves the program", path.pc));
    };
    let Some(instr) = slot else {
        return StepResult::Abandon(format!("undecodable word at {}", path.pc));
    };
    let addr = path.pc as usize;
    path.cycles += 1;
    let fall = path.pc.wrapping_add(1);
    path.pc = fall;
    match instr {
        CtrlInstr::Halt => return StepResult::Halted,
        CtrlInstr::Cimm { imm } => path.cir = imm,
        CtrlInstr::Wctx { ctx } => path.wctx = ctx as usize,
        CtrlInstr::Wdn { rs, dnode } => {
            let word = path.read(rs).map(|v| micro_word(v, path.cir));
            let (ctx, dnode) = (path.wctx, dnode as usize);
            path.record(addr, ConfigEvent::WriteDnode { ctx, dnode, word });
        }
        CtrlInstr::Wsw { rs, port } => {
            let word = path.read(rs);
            // Flat port addressing: `(switch * width + lane) * 4 + input`.
            let flat = port as usize;
            let (switch, lane, input) = match model.geometry {
                Some(g) => (flat / (4 * g.width()), (flat / 4) % g.width(), flat % 4),
                None => (flat / 4, 0, flat % 4),
            };
            let ctx = path.wctx;
            path.record(
                addr,
                ConfigEvent::WritePort {
                    ctx,
                    switch,
                    lane,
                    input,
                    word,
                },
            );
        }
        CtrlInstr::Who { rs, switch } => {
            let (s, p) = split_port(switch);
            let ctx = path.wctx;
            match path.read(rs) {
                Some(v) => {
                    path.record(
                        addr,
                        ConfigEvent::WriteCapture {
                            ctx,
                            switch: s,
                            port: p,
                        },
                    );
                    // Armed iff the selector decodes to a selected lane;
                    // the structural pass vouches for decodability, so a
                    // nonzero low bit is the armed flag by construction.
                    let armed = systolic_ring_isa::switch::HostCapture::decode(v)
                        .is_ok_and(|c| c.selected().is_some());
                    path.capture_overlay.insert((ctx, s, p), armed);
                    path.refresh_live(model, ports);
                }
                None => {
                    return StepResult::Abandon(format!(
                        "capture selector written with unknown data at {addr} \
                         (host-pop liveness becomes unknowable)"
                    ));
                }
            }
        }
        CtrlInstr::Wmode { rs, dnode } => {
            let local = path.read(rs).map(|v| v != 0);
            let dnode = dnode as usize;
            path.record(addr, ConfigEvent::WriteMode { dnode, local });
        }
        CtrlInstr::Wloc { rs, packed } => {
            let word = path.read(rs).map(|v| micro_word(v, path.cir));
            let (dnode, slot) = split_slot(packed);
            path.record(addr, ConfigEvent::WriteLocalSlot { dnode, slot, word });
        }
        CtrlInstr::Wlim { rs, dnode } => {
            let limit = path.read(rs);
            let dnode = dnode as usize;
            path.record(addr, ConfigEvent::WriteLocalLimit { dnode, limit });
        }
        CtrlInstr::Ctx { ctx } => {
            let ctx = ctx as usize;
            path.record(addr, ConfigEvent::SetCtx { ctx });
            path.active_ctx = ctx;
            path.refresh_live(model, ports);
        }
        CtrlInstr::Wait { cycles } => {
            path.cycles += u64::from(cycles).saturating_sub(1);
        }
        CtrlInstr::Busr { rd } => {
            path.abstracted = true;
            path.write(rd, None);
        }
        CtrlInstr::Hpop { rd, switch } => {
            let (s, p) = split_port(switch);
            match path.live_from.get(&(s, p)).copied() {
                Some(live) => {
                    let k = path.pops.entry((s, p)).or_insert(0);
                    *k += 1;
                    let ready = live + HPOP_READY_BASE + *k;
                    if ready > path.cycles {
                        path.cycles = ready;
                    }
                    path.abstracted = true;
                    path.write(rd, None);
                }
                None if !path.abstracted => {
                    return StepResult::Diverge {
                        reason: format!(
                            "pops host-output port {p} of switch {s}, whose capture is \
                             never armed in any active context (the controller stalls \
                             forever)"
                        ),
                        addr,
                    };
                }
                None => {
                    return StepResult::Abandon(format!(
                        "pop at {addr} of a port whose capture may never be armed"
                    ));
                }
            }
        }
        _ => match instr.exec(addr as u32, |r| path.read(r)) {
            Exec::Write { rd, value } => path.write(rd, value),
            Exec::Load { rd, addr: None } => path.write(rd, None),
            Exec::Load { rd, addr: Some(a) } => {
                if a as usize >= limits.dmem_capacity {
                    return StepResult::Abandon(format!("load from out-of-range address {a}"));
                }
                let preloaded = || Some(object.data.get(a as usize).copied().unwrap_or(0));
                let v = path.dmem.get(&a).copied().unwrap_or_else(preloaded);
                path.write(rd, v);
            }
            Exec::Store { addr: None, .. } => {
                return StepResult::Abandon(
                    "store to an unknown address (poisons data memory)".to_owned(),
                );
            }
            Exec::Store {
                value,
                addr: Some(a),
            } => {
                if a as usize >= limits.dmem_capacity {
                    return StepResult::Abandon(format!("store to out-of-range address {a}"));
                }
                path.dmem.insert(a, value);
            }
            // Known operands decide a branch; unknown ones fork both
            // successors (the caller enqueues the taken side, this path
            // continues on the fall-through).
            Exec::Branch { taken: Some(0), .. } => {}
            Exec::Branch {
                taken: Some(_),
                target,
            } => return jump(path, target, fall),
            Exec::Branch {
                taken: None,
                target,
            } => return StepResult::Fork { taken: target },
            Exec::Jump { target, link } => {
                if let Some(link) = link {
                    path.write(CReg::LINK, link);
                }
                let Some(target) = target else {
                    return StepResult::Abandon(
                        "indirect jump through an unknown register".to_owned(),
                    );
                };
                return jump(path, target, fall);
            }
            Exec::Other => {}
        },
    }
    StepResult::Continue
}

/// Jump with backward-edge divergence detection on concrete paths.
fn jump(path: &mut Path, target: u32, fall: u32) -> StepResult {
    if target < fall && !path.abstracted {
        path.pc = target;
        let key = path.state_key();
        if !path.seen.insert(key) {
            return StepResult::Diverge {
                reason: "revisits an exact controller state (the program provably never halts)"
                    .to_owned(),
                addr: fall.wrapping_sub(1) as usize,
            };
        }
        return StepResult::Continue;
    }
    path.pc = target;
    StepResult::Continue
}
