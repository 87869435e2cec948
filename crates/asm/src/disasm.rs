//! Disassembler: object code back to assembler source.
//!
//! [`disassemble`] renders a whole [`Object`] as a program the assembler
//! accepts again: for any object the assembler itself produced,
//! `assemble(&disassemble(&object))` reproduces the original byte for
//! byte (the round-trip property the fuzz suite enforces). Records the
//! assembler's grammar cannot express — undecodable words, missing
//! geometry, pathological branch targets — degrade to `;`-comments, so
//! the output is always printable even for foreign objects.
//!
//! [`disassemble_code`] keeps the traditional addressed listing format
//! for humans reading controller programs.

use systolic_ring_isa::ctrl::{CtrlInstr, Exec};
use systolic_ring_isa::dnode::{AluOp, MicroInstr, Operand};
use systolic_ring_isa::object::{Object, Preload};
use systolic_ring_isa::switch::{HostCapture, PortSource};

/// Disassembles a controller program as an addressed listing;
/// undecodable words are shown as `.word 0x...`.
pub fn disassemble_code(code: &[u32]) -> String {
    let mut out = String::new();
    for (addr, word) in code.iter().enumerate() {
        match CtrlInstr::decode(*word) {
            Ok(instr) => out.push_str(&format!("{addr:5}:  {instr}\n")),
            Err(_) => out.push_str(&format!("{addr:5}:  .word {word:#010x}\n")),
        }
    }
    out
}

/// Renders a whole object as reassemblable source: geometry and context
/// declarations, fabric preloads, controller code and data.
pub fn disassemble(object: &Object) -> String {
    let mut out = String::new();
    match object.geometry {
        Some(g) => out.push_str(&format!(".ring {}x{}\n", g.layers(), g.width())),
        None => out.push_str("; geometry: unspecified\n"),
    }
    out.push_str(&format!(".contexts {}\n", object.contexts));

    if !object.preload.is_empty() {
        out.push('\n');
        if object.geometry.is_some() {
            emit_preloads(object, &mut out);
        } else {
            // Fabric statements need a declared geometry; without one the
            // records can only be shown, not reassembled.
            for record in &object.preload {
                out.push_str(&format!("; (no geometry) {record:?}\n"));
            }
        }
    }

    if !object.code.is_empty() {
        out.push_str("\n.code\n");
        for (addr, &word) in object.code.iter().enumerate() {
            match code_line(addr, word) {
                Some(line) => out.push_str(&format!("  {line}\n")),
                None => out.push_str(&format!("  ; {addr}: .word {word:#010x} (inexpressible)\n")),
            }
        }
    }

    if !object.data.is_empty() {
        out.push_str("\n.data\n");
        for word in &object.data {
            out.push_str(&format!("  .word {word:#010x}\n"));
        }
    }
    out
}

/// Emits the preload stream in order, tracking the active `.ctx` and
/// folding `LocalSlot` + `LocalLimit` runs back into `.local` blocks.
fn emit_preloads(object: &Object, out: &mut String) {
    let g = object.geometry.expect("caller checked geometry");
    let pos = |dnode: u16| -> Option<(usize, usize)> {
        ((dnode as usize) < g.dnodes()).then(|| g.dnode_position(dnode as usize))
    };
    let fallback = |record: &Preload, out: &mut String| {
        out.push_str(&format!("; {record:?} (inexpressible)\n"));
    };
    // Emits a `.ctx` transition plus the statement, or a comment when the
    // record's context is not declarable (`.ctx K` needs `K < contexts`).
    let mut current_ctx = 0u16;
    let mut stmt = |ctx: u16, line: Option<String>, record: &Preload, out: &mut String| match line {
        Some(line) if ctx < object.contexts => {
            if ctx != current_ctx {
                out.push_str(&format!(".ctx {ctx}\n"));
                current_ctx = ctx;
            }
            out.push_str(&line);
            out.push('\n');
        }
        _ => fallback(record, out),
    };

    let records = &object.preload;
    let mut i = 0;
    while i < records.len() {
        let record = &records[i];
        match *record {
            Preload::DnodeInstr { ctx, dnode, word } => {
                let line = pos(dnode).and_then(|(layer, lane)| {
                    let micro = micro_text(&MicroInstr::decode(word).ok()?)?;
                    Some(format!("node {layer},{lane}: {micro}"))
                });
                stmt(ctx, line, record, out);
            }
            Preload::SwitchPort {
                ctx,
                switch,
                lane,
                input,
                word,
            } => {
                let line = ["in1", "in2", "fifo1", "fifo2"]
                    .get(input as usize)
                    .and_then(|port| {
                        let source = source_text(PortSource::decode(word).ok()?, g.switches())?;
                        ((switch as usize) < g.switches() && (lane as usize) < g.width())
                            .then(|| format!("route {switch},{lane}.{port} = {source}"))
                    });
                stmt(ctx, line, record, out);
            }
            Preload::HostCapture {
                ctx,
                switch,
                port,
                word,
            } => {
                let line = HostCapture::decode(word).ok().and_then(|cap| {
                    if (switch as usize) >= g.switches() || (port as usize) >= g.width() {
                        return None;
                    }
                    let what = match cap.selected() {
                        Some(lane) if (lane as usize) < g.width() => format!("lane {lane}"),
                        Some(_) => return None,
                        None => "off".to_owned(),
                    };
                    Some(format!("capture {switch}.{port} = {what}"))
                });
                stmt(ctx, line, record, out);
            }
            Preload::Mode { dnode, local } => match pos(dnode) {
                Some((layer, lane)) => out.push_str(&format!(
                    ".mode {layer},{lane} {}\n",
                    if local { "local" } else { "global" }
                )),
                None => fallback(record, out),
            },
            Preload::LocalSlot { dnode, .. } => match local_block(records, i, dnode) {
                Some((lines, consumed)) => {
                    let (layer, lane) = pos(dnode).expect("local_block checked bounds");
                    out.push_str(&format!(".local {layer},{lane}\n"));
                    for line in lines {
                        out.push_str(&format!("  {line}\n"));
                    }
                    out.push_str(".endlocal\n");
                    i += consumed;
                    continue;
                }
                None => fallback(record, out),
            },
            Preload::LocalLimit { .. } => {
                // A limit with no preceding slot run was consumed by no
                // `.local` block; the grammar cannot set a bare limit.
                fallback(record, out);
            }
        }
        i += 1;
    }
}

/// Tries to match `records[start..]` against the exact shape `.local`
/// emits: decodable slots `0..n` of one in-range dnode in order, then
/// `LocalLimit { limit: n }`. Returns the rendered slot lines and the
/// number of records consumed.
fn local_block(records: &[Preload], start: usize, dnode: u16) -> Option<(Vec<String>, usize)> {
    let mut lines = Vec::new();
    let mut i = start;
    while let Some(&Preload::LocalSlot {
        dnode: d,
        slot,
        word,
    }) = records.get(i)
    {
        if d != dnode || slot as usize != lines.len() {
            break;
        }
        lines.push(micro_text(&MicroInstr::decode(word).ok()?)?);
        i += 1;
    }
    match records.get(i) {
        Some(&Preload::LocalLimit { dnode: d, limit })
            if d == dnode && limit as usize == lines.len() && !lines.is_empty() =>
        {
            Some((lines, i + 1 - start))
        }
        _ => None,
    }
}

/// Renders a microinstruction in the assembler's grammar, or `None` when
/// it cannot be expressed (e.g. a set immediate field with no `#` operand).
fn micro_text(instr: &MicroInstr) -> Option<String> {
    let operand = |op: Operand| -> String {
        match op {
            Operand::Reg(r) => r.to_string(),
            Operand::In1 => "in1".to_owned(),
            Operand::In2 => "in2".to_owned(),
            Operand::Fifo1 => "fifo1".to_owned(),
            Operand::Fifo2 => "fifo2".to_owned(),
            Operand::Bus => "bus".to_owned(),
            Operand::Imm => format!("#{}", instr.imm.bits()),
            Operand::Zero => "zero".to_owned(),
            Operand::One => "one".to_owned(),
        }
    };
    let uses_imm = instr.src_a == Operand::Imm || instr.src_b == Operand::Imm;
    if !uses_imm && instr.imm.bits() != 0 {
        return None; // the grammar only sets `imm` through a `#` operand
    }
    let mut text = instr.alu.mnemonic().to_owned();
    match instr.alu {
        AluOp::Nop => {
            if instr.src_a != Operand::Zero || instr.src_b != Operand::Zero {
                return None;
            }
        }
        AluOp::PassA | AluOp::Neg | AluOp::Abs | AluOp::Not => {
            if instr.src_b != Operand::Zero {
                return None;
            }
            text.push_str(&format!(" {}", operand(instr.src_a)));
        }
        AluOp::PassB => {
            if instr.src_a != Operand::Zero {
                return None;
            }
            text.push_str(&format!(" {}", operand(instr.src_b)));
        }
        _ => text.push_str(&format!(
            " {}, {}",
            operand(instr.src_a),
            operand(instr.src_b)
        )),
    }
    let mut dests = Vec::new();
    if let Some(reg) = instr.wr_reg {
        dests.push(reg.to_string());
    }
    if instr.wr_out {
        dests.push("out".to_owned());
    }
    if instr.wr_bus {
        dests.push("bus".to_owned());
    }
    if !dests.is_empty() {
        text.push_str(&format!(" > {}", dests.join(", ")));
    }
    Some(text)
}

/// Renders a port source in the assembler's grammar.
fn source_text(source: PortSource, switches: usize) -> Option<String> {
    Some(match source {
        PortSource::Zero => "zero".to_owned(),
        PortSource::Bus => "bus".to_owned(),
        PortSource::PrevOut { lane } => format!("prev.{lane}"),
        PortSource::HostIn { port } => format!("host.{port}"),
        PortSource::Pipe {
            switch,
            stage,
            lane,
        } => {
            if (switch as usize) >= switches {
                return None;
            }
            format!("pipe[{switch},{stage}].{lane}")
        }
    })
}

/// Renders one controller word as a reassemblable instruction line, with
/// branch offsets rewritten to the absolute targets the grammar takes.
fn code_line(addr: usize, word: u32) -> Option<String> {
    let instr = CtrlInstr::decode(word).ok()?;
    let text = instr.to_string();
    match instr.exec(addr as u32, |_| None::<u32>) {
        // `beq ra, rb, offset` becomes `beq ra, rb, target`.
        Exec::Branch { target, .. } => {
            let (operands, _offset) = text.rsplit_once(", ")?;
            (target <= u32::from(u16::MAX)).then(|| format!("{operands}, {target}"))
        }
        _ => Some(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble;
    use systolic_ring_isa::ctrl::CReg;
    use systolic_ring_isa::dnode::Reg;
    use systolic_ring_isa::RingGeometry;

    #[test]
    fn renders_code_and_bad_words() {
        let r1 = CReg::new(1).unwrap();
        let code = vec![
            CtrlInstr::Addi {
                rd: r1,
                ra: CReg::ZERO,
                imm: 5,
            }
            .encode(),
            0xffff_ffff,
            CtrlInstr::Halt.encode(),
        ];
        let text = disassemble_code(&code);
        assert!(text.contains("addi r1, r0, 5"));
        assert!(text.contains(".word 0xffffffff"));
        assert!(text.contains("halt"));
    }

    #[test]
    fn whole_object_round_trips_through_source() {
        let source = "\
.ring 4x2
.contexts 2
route 0,0.in1 = host.0
route 1,1.fifo1 = pipe[0,3].0
node 0,0: add in1, #100 > out
capture 1.0 = lane 0
.ctx 1
node 0,0: mul in1, in1 > out, bus
.ctx 0
.local 0,1
  mov in1 > r2
  mac r2, #7 > r3, out
.endlocal
.mode 0,1 local
.code
start:
  addi r1, r0, 32
  bne r1, r0, start
  sw r1, 4(r0)
  halt
.data
  .word 0x00000007
";
        let object = assemble(source).unwrap();
        let text = disassemble(&object);
        let reassembled = assemble(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert_eq!(reassembled, object, "---\n{text}");
        assert_eq!(reassembled.to_bytes(), object.to_bytes());
    }

    #[test]
    fn renders_whole_object() {
        let micro = MicroInstr::op(AluOp::PassA, Operand::Reg(Reg::R3), Operand::Zero)
            .write_out()
            .encode();
        let object = Object {
            geometry: Some(RingGeometry::RING_8),
            contexts: 2,
            code: vec![CtrlInstr::Halt.encode()],
            data: vec![7],
            preload: vec![
                Preload::Mode {
                    dnode: 1,
                    local: true,
                },
                Preload::LocalSlot {
                    dnode: 1,
                    slot: 0,
                    word: micro,
                },
                Preload::LocalLimit { dnode: 1, limit: 1 },
                Preload::HostCapture {
                    ctx: 0,
                    switch: 1,
                    port: 0,
                    word: 1,
                },
            ],
        };
        let text = disassemble(&object);
        assert!(text.contains(".ring 4x2"), "{text}");
        assert!(text.contains(".mode 0,1 local"), "{text}");
        assert!(text.contains(".local 0,1"), "{text}");
        assert!(text.contains("capture 1.0 = lane 0"), "{text}");
        assert!(text.contains(".data"), "{text}");
        let reassembled = assemble(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert_eq!(reassembled, object, "---\n{text}");
    }

    #[test]
    fn foreign_records_degrade_to_comments() {
        let object = Object {
            geometry: Some(RingGeometry::RING_8),
            contexts: 1,
            code: vec![],
            data: vec![],
            preload: vec![
                // Bare limit with no preceding slot run.
                Preload::LocalLimit { dnode: 0, limit: 3 },
                // Dnode index beyond the fabric.
                Preload::Mode {
                    dnode: 200,
                    local: false,
                },
                // Context beyond the declared count.
                Preload::DnodeInstr {
                    ctx: 5,
                    dnode: 0,
                    word: MicroInstr::NOP.encode(),
                },
            ],
        };
        let text = disassemble(&object);
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("(inexpressible)"))
                .count(),
            3,
            "{text}"
        );
        // The commented output still reassembles (to an object without
        // the inexpressible records).
        assemble(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
    }
}
