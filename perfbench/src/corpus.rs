//! The `programs/` corpus: assembled objects with their declared host
//! ports, and the per-object costs of the layers that prepare them.

use systolic_ring_asm::literate::assemble_source;
use systolic_ring_core::{MachineParams, RingMachine};
use systolic_ring_harness::job::{CycleBudget, Job};
use systolic_ring_isa::object::Object;
use systolic_ring_isa::RingGeometry;
use systolic_ring_lint::{lint_object_with, LintLimits};

use crate::measure::{median, median_us, programs_dir, Report};
use crate::span::Tracer;

/// One assembled corpus program with its declared host ports.
pub struct Program {
    pub name: String,
    pub object: Object,
    pub inputs: Vec<(usize, usize)>,
    pub sinks: Vec<(usize, usize)>,
}

/// Name and text of every `.sr` / `.sr.md` program of the corpus.
fn sources() -> Result<Vec<(String, String)>, String> {
    let dir = programs_dir();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".sr") || name.ends_with(".sr.md"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("no programs under {}", dir.display()));
    }
    names
        .into_iter()
        .map(|name| {
            let text =
                std::fs::read_to_string(dir.join(&name)).map_err(|e| format!("{name}: {e}"))?;
            Ok((name, text))
        })
        .collect()
}

/// Reads and assembles every program of the corpus.
pub fn load(tracer: &Tracer) -> Result<Vec<Program>, String> {
    sources()?
        .into_iter()
        .map(|(name, text)| {
            let (object, expect) = tracer
                .span("asm.assemble_source", 0, || assemble_source(&name, &text))
                .map_err(|e| format!("{name}: {e}"))?;
            Ok(Program {
                inputs: expect.inputs.iter().map(|v| (v.switch, v.port)).collect(),
                sinks: expect.sink_ports(),
                name,
                object,
            })
        })
        .collect()
}

/// Geometry a corpus object runs on.
pub fn geometry_of(object: &Object) -> RingGeometry {
    object.geometry.unwrap_or(RingGeometry::RING_8)
}

/// Lint limits of the paper machine for `object`.
fn limits_for(object: &Object) -> LintLimits {
    let p = MachineParams::PAPER;
    LintLimits {
        contexts: p.contexts,
        pipe_depth: p.pipe_depth,
        prog_capacity: p.prog_capacity,
        dmem_capacity: p.dmem_capacity,
        geometry: Some(geometry_of(object)),
    }
}

/// Per-object costs of the set-up layers: assembling each corpus source,
/// pre-flighting each object into a job, and building a machine for it.
pub fn object_probes(report: &mut Report, tracer: &Tracer, objects: &[&Object]) {
    let mut assemble = Vec::new();
    for (name, text) in sources().unwrap_or_default() {
        assemble.push(median_us(20, || {
            tracer.span("asm.assemble_source", 0, || {
                std::hint::black_box(assemble_source(&name, &text).is_ok())
            });
        }));
    }
    let mut preflight = Vec::new();
    let mut build = Vec::new();
    for &object in objects {
        let geometry = geometry_of(object);
        preflight.push(median_us(20, || {
            tracer.span("lint.preflight", 0, || {
                std::hint::black_box(Job::from_object(
                    "probe",
                    geometry,
                    MachineParams::PAPER,
                    object.clone(),
                    CycleBudget::Cycles(2048),
                ))
            });
        }));
        let proof = lint_object_with(object, &limits_for(object)).proof;
        build.push(median_us(50, || {
            tracer.span("core.machine.build", 0, || {
                let mut m = RingMachine::new(geometry, MachineParams::PAPER);
                let loaded = m.load(object).is_ok();
                std::hint::black_box(loaded && m.attach_proof(&proof));
            });
        }));
    }
    report.layer("asm.assemble_us", median(&assemble), "us");
    report.layer("lint.preflight_us", median(&preflight), "us");
    report.layer("core.machine.build_us", median(&build), "us");
}
