//! Sequencer pass (`RL-Qxxx`, plus `RL-F002`): local-mode sequencer
//! bounds, the controller's context-switch graph, and a static walk of the
//! controller program itself.
//!
//! The controller walk builds a conservative control-flow graph from
//! address 0 — branches add both arms, absolute jumps add their target
//! (both from the ISA's own `CtrlInstr::exec`), `jr` is resolved against
//! the link addresses of reachable `jal`s — and then checks every
//! reachable instruction for statically certain faults: undecodable
//! words, transfers outside the program, and configuration writes whose
//! immediate operand is out of range for the declared geometry (all of
//! which raise `SimError`s the moment they execute). Last, a reachable
//! host pop from a port nothing can ever feed is flagged (`RL-F002`).

use std::collections::BTreeSet;

use systolic_ring_isa::ctrl::{split_port, split_slot, CReg, CtrlInstr, Exec};
use systolic_ring_isa::dnode::LOCAL_SLOTS;
use systolic_ring_isa::object::{Object, Preload};

use crate::diag::{Diagnostic, Severity, Site};
use crate::model::{emit, ConfigModel};
use crate::LintLimits;

/// What the control-flow walk learned about the controller program.
pub(crate) struct CodeFacts {
    /// Decoded instruction per address; `Some` only for addresses that are
    /// both reachable and decodable.
    pub reachable: Vec<Option<CtrlInstr>>,
    /// Contexts a reachable `ctx` instruction can make active (always
    /// contains 0, the reset context).
    pub selectable: BTreeSet<usize>,
}

impl CodeFacts {
    /// Iterates reachable, decoded instructions with their addresses.
    pub fn instrs(&self) -> impl Iterator<Item = (usize, CtrlInstr)> + '_ {
        self.reachable
            .iter()
            .enumerate()
            .filter_map(|(addr, i)| i.map(|i| (addr, i)))
    }
}

pub(crate) fn check(
    object: &Object,
    model: &ConfigModel,
    limits: &LintLimits,
    diags: &mut Vec<Diagnostic>,
) -> CodeFacts {
    check_local_sequencers(object, model, diags);
    let facts = walk_code(object, diags);
    check_static_operands(&facts, model, limits, diags);
    check_context_graph(model, &facts, diags);
    check_host_pops(&facts, model, diags);
    facts
}

/// `RL-Q001`/`RL-Q002`/`RL-Q003`: local-sequencer slot, limit and replay
/// consistency (the paper caps stand-alone macro-operators at 8 slots).
fn check_local_sequencers(object: &Object, model: &ConfigModel, diags: &mut Vec<Diagnostic>) {
    for (index, record) in object.preload.iter().enumerate() {
        match *record {
            Preload::LocalSlot { dnode, slot, .. } if slot as usize >= LOCAL_SLOTS => emit(
                diags,
                "RL-Q001",
                Severity::Error,
                Site::Preload { index },
                format!(
                    "local-sequencer slot {slot} of dnode {dnode} out of range \
                     (a dnode has {LOCAL_SLOTS})"
                ),
                "local programs are limited to 8 microinstructions (S1..S8)",
            ),
            Preload::LocalLimit { dnode, limit } if !(1..=LOCAL_SLOTS as u8).contains(&limit) => {
                emit(
                    diags,
                    "RL-Q002",
                    Severity::Error,
                    Site::Preload { index },
                    format!("sequencer limit {limit} for dnode {dnode} outside 1..=8"),
                    "the LIMIT register counts replayed slots and must stay in 1..=8",
                )
            }
            _ => {}
        }
    }
    for (&dnode, &local) in &model.modes {
        if !local {
            continue;
        }
        let written: BTreeSet<usize> = model
            .local_slots
            .keys()
            .filter(|(d, _)| *d == dnode)
            .map(|&(_, slot)| slot)
            .collect();
        if written.is_empty() {
            emit(
                diags,
                "RL-Q003",
                Severity::Warning,
                Site::Dnode { ctx: None, dnode },
                "placed in local mode but its sequencer holds no program".to_owned(),
                "preload `.local` slots before arming local mode, or keep the dnode global",
            );
            continue;
        }
        let limit = model.local_limits.get(&dnode).copied().unwrap_or(1) as usize;
        let unwritten: Vec<usize> = (0..limit).filter(|s| !written.contains(s)).collect();
        if !unwritten.is_empty() {
            emit(
                diags,
                "RL-Q003",
                Severity::Warning,
                Site::Dnode { ctx: None, dnode },
                format!(
                    "sequencer limit {limit} replays slot(s) {unwritten:?} that were never \
                     written (they execute as NOPs)"
                ),
                "write every slot below the limit or lower the limit",
            );
        }
    }
}

/// Reachability state of the control-flow walk.
struct Cfg<'a> {
    len: usize,
    visited: Vec<bool>,
    worklist: Vec<usize>,
    diags: &'a mut Vec<Diagnostic>,
    /// `true` once a transfer left the program or a word failed to decode.
    errors: bool,
}

impl Cfg<'_> {
    /// Marks `target` reachable from `from`, or diagnoses `RL-Q007` when
    /// it leaves the program.
    fn push(&mut self, from: usize, target: u32, what: &str) {
        let len = self.len;
        if target as usize >= len {
            emit(
                self.diags,
                "RL-Q007",
                Severity::Error,
                Site::Code { addr: from },
                format!("{what} leaves the {len}-word program (target {target})"),
                "every reachable path must stay inside the program or end in `halt`",
            );
            self.errors = true;
        } else if !self.visited[target as usize] {
            self.visited[target as usize] = true;
            self.worklist.push(target as usize);
        }
    }
}

/// Builds the reachability set and diagnoses `RL-Q005`/`RL-Q006`/`RL-Q007`.
fn walk_code(object: &Object, diags: &mut Vec<Diagnostic>) -> CodeFacts {
    let len = object.code.len();
    let mut reachable: Vec<Option<CtrlInstr>> = vec![None; len];
    let mut selectable = BTreeSet::from([0usize]);
    if len == 0 {
        return CodeFacts {
            reachable,
            selectable,
        };
    }

    let mut cfg = Cfg {
        len,
        visited: vec![false; len],
        worklist: vec![0],
        diags,
        errors: false,
    };
    let mut jal_links: BTreeSet<u32> = BTreeSet::new();
    let mut jr_sites: Vec<usize> = Vec::new();

    cfg.visited[0] = true;
    while let Some(addr) = cfg.worklist.pop() {
        let word = object.code[addr];
        let instr = match CtrlInstr::decode(word) {
            Ok(instr) => instr,
            Err(e) => {
                emit(
                    cfg.diags,
                    "RL-Q006",
                    Severity::Error,
                    Site::Code { addr },
                    format!("reachable word {word:#010x} is not a valid instruction: {e}"),
                    "the controller raises BadInstruction when it fetches this word",
                );
                cfg.errors = true;
                continue;
            }
        };
        reachable[addr] = Some(instr);
        let fall = addr as u32 + 1;
        // With every register unknown, `exec` yields exactly the static
        // successors: both arms of a branch, the target of `j` or `jal`.
        match instr.exec(addr as u32, |_| None) {
            Exec::Branch { target, .. } => {
                cfg.push(addr, target, "branch");
                cfg.push(addr, fall, "fall-through");
            }
            Exec::Jump {
                target: Some(target),
                link,
            } => {
                if let Some(Some(link)) = link {
                    if jal_links.insert(link) {
                        // A new link address: reconsider every `jr` seen so far.
                        for &jr in &jr_sites {
                            cfg.push(jr, link, "return");
                        }
                    }
                }
                cfg.push(addr, target, if link.is_some() { "call" } else { "jump" });
            }
            Exec::Jump { target: None, .. } => {
                jr_sites.push(addr);
                if jal_links.is_empty() {
                    emit(
                        cfg.diags,
                        "RL-Q007",
                        Severity::Warning,
                        Site::Code { addr },
                        "jump-register with no statically known target; reachability past \
                         this point is approximate"
                            .to_owned(),
                        "prefer `jal`/`jr` pairs so the linter can follow returns",
                    );
                }
                for &link in &jal_links {
                    cfg.push(addr, link, "return");
                }
            }
            Exec::Other if instr == CtrlInstr::Halt => {}
            _ => {
                if let CtrlInstr::Ctx { ctx } = instr {
                    selectable.insert(ctx as usize);
                }
                cfg.push(addr, fall, "fall-through");
            }
        }
    }

    // RL-Q005: dead words — only meaningful when the graph was fully
    // analyzable (transfer or decode errors already poison reachability).
    if !cfg.errors {
        let dead: Vec<usize> = (0..len).filter(|&a| !cfg.visited[a]).collect();
        if let Some(&first) = dead.first() {
            let n = dead.len();
            emit(
                cfg.diags,
                "RL-Q005",
                Severity::Warning,
                Site::Code { addr: first },
                format!("{n} code word(s) are unreachable from the entry point (first at {first})"),
                "delete the dead words or add a path that reaches them",
            );
        }
    }

    CodeFacts {
        reachable,
        selectable,
    }
}

/// `RL-Q008`: reachable configuration writes and memory accesses whose
/// operands are statically certain to fault.
fn check_static_operands(
    facts: &CodeFacts,
    model: &ConfigModel,
    limits: &LintLimits,
    diags: &mut Vec<Diagnostic>,
) {
    let geometry = model.geometry;
    let mut bad = |addr: usize, message: String| {
        emit(
            diags,
            "RL-Q008",
            Severity::Error,
            Site::Code { addr },
            message,
            "this instruction raises BadConfigWrite or DmemOutOfRange when it executes",
        );
    };
    for (addr, instr) in facts.instrs() {
        match instr {
            CtrlInstr::Wdn { dnode, .. }
            | CtrlInstr::Wmode { dnode, .. }
            | CtrlInstr::Wlim { dnode, .. } => {
                if let Some(g) = geometry {
                    if dnode as usize >= g.dnodes() {
                        bad(
                            addr,
                            format!(
                                "writes dnode {dnode}, but the ring has {} dnodes",
                                g.dnodes()
                            ),
                        );
                    }
                }
                if let CtrlInstr::Wlim { rs, .. } = instr {
                    if rs == CReg::ZERO {
                        bad(
                            addr,
                            "sets a sequencer limit from r0 (always 0, outside 1..=8)".to_owned(),
                        );
                    }
                }
            }
            CtrlInstr::Wloc { packed, .. } => {
                if let Some(g) = geometry {
                    let (dnode, _) = split_slot(packed);
                    if dnode >= g.dnodes() {
                        bad(
                            addr,
                            format!(
                                "writes local slot of dnode {dnode}, but the ring has {} dnodes",
                                g.dnodes()
                            ),
                        );
                    }
                }
            }
            CtrlInstr::Wsw { port, .. } => {
                if let Some(g) = geometry {
                    let flat_ports = g.switches() * g.width() * 4;
                    if port as usize >= flat_ports {
                        bad(
                            addr,
                            format!("writes crossbar port {port}, but the ring has {flat_ports}"),
                        );
                    }
                }
            }
            CtrlInstr::Who { switch, .. } | CtrlInstr::Hpop { switch, .. } => {
                if let Some(g) = geometry {
                    let (s, p) = split_port(switch);
                    if s >= g.switches() || p >= g.width() {
                        bad(
                            addr,
                            format!(
                                "addresses host-output port {p} of switch {s} (ring has {} \
                                 switches of {} output ports)",
                                g.switches(),
                                g.width()
                            ),
                        );
                    }
                }
            }
            CtrlInstr::Hpush { switch, .. } => {
                if let Some(g) = geometry {
                    let (s, p) = split_port(switch);
                    if s >= g.switches() || p >= 2 * g.width() {
                        bad(
                            addr,
                            format!(
                                "addresses host-input port {p} of switch {s} (ring has {} \
                                 switches of {} input ports)",
                                g.switches(),
                                2 * g.width()
                            ),
                        );
                    }
                }
            }
            CtrlInstr::Ctx { ctx } | CtrlInstr::Wctx { ctx } if ctx as usize >= model.ctx_limit => {
                bad(
                    addr,
                    format!(
                        "selects context {ctx}, but the object provides {} contexts",
                        model.ctx_limit
                    ),
                );
            }
            // With only r0 known, `exec` yields the address of an
            // r0-based `lw`/`sw` and nothing else.
            _ => match instr.exec(addr as u32, |r| (r == CReg::ZERO).then_some(0)) {
                Exec::Load {
                    addr: Some(abs), ..
                }
                | Exec::Store {
                    addr: Some(abs), ..
                } if abs as usize >= limits.dmem_capacity => {
                    bad(
                        addr,
                        format!(
                            "accesses data word {abs} ({} from r0), but data memory \
                             holds {} words",
                            abs as i32, limits.dmem_capacity
                        ),
                    );
                }
                _ => {}
            },
        }
    }
}

/// `RL-Q004`: contexts carrying configuration that no reachable `ctx`
/// instruction can ever make active.
fn check_context_graph(model: &ConfigModel, facts: &CodeFacts, diags: &mut Vec<Diagnostic>) {
    let mut configured: BTreeSet<usize> = BTreeSet::new();
    configured.extend(model.dnode_instrs.keys().map(|&(ctx, _)| ctx));
    configured.extend(model.routes.keys().map(|&(ctx, ..)| ctx));
    configured.extend(model.captures.keys().map(|&(ctx, ..)| ctx));
    for ctx in configured {
        if !facts.selectable.contains(&ctx) {
            emit(
                diags,
                "RL-Q004",
                Severity::Warning,
                Site::Ctx { ctx },
                "carries configuration, but no reachable `ctx` instruction ever selects it"
                    .to_owned(),
                "select the context from the controller program or drop its configuration",
            );
        }
    }
}

/// `RL-F002`: a reachable host pop from a port no capture selector ever
/// feeds (and no reachable `who` could arm at run time) stalls forever.
fn check_host_pops(facts: &CodeFacts, model: &ConfigModel, diags: &mut Vec<Diagnostic>) {
    if facts
        .instrs()
        .any(|(_, i)| matches!(i, CtrlInstr::Who { .. }))
    {
        return;
    }
    for (addr, instr) in facts.instrs() {
        let CtrlInstr::Hpop { switch, .. } = instr else {
            continue;
        };
        let (s, p) = split_port(switch);
        let fed = model
            .captures
            .iter()
            .any(|(&(_, cs, cp), cap)| cs == s && cp == p && cap.selected().is_some());
        if !fed {
            emit(
                diags,
                "RL-F002",
                Severity::Warning,
                Site::Code { addr },
                format!(
                    "pops host-output port {p} of switch {s}, but no capture selector \
                     ever feeds it (the controller stalls forever)"
                ),
                "add a `capture` for the port or pop a captured one",
            );
        }
    }
}
