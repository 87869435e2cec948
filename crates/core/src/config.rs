//! The configuration layer: multi-context fabric configuration memory.
//!
//! "The configuration layer follows the same principle as FPGAs, it's a
//! \[memory\] which contains the configuration of all the components (Dnodes
//! and interconnect) of the operative layer" (§3). We model it as a set of
//! *contexts*, each holding a full fabric configuration (every Dnode
//! microinstruction, every switch crossbar port, every host-capture
//! selector). The configuration controller edits contexts word-by-word and
//! switches the *active* context in a single cycle — the mechanism behind
//! "the configuration controller is able to change up to the entire content
//! of the [configuration layer]" each clock cycle.

use systolic_ring_isa::dnode::MicroInstr;
use systolic_ring_isa::switch::{HostCapture, PortSource};
use systolic_ring_isa::RingGeometry;

use crate::error::ConfigError;

/// Number of routed input ports per Dnode (`In1`, `In2`, `Fifo1`, `Fifo2`).
pub const DNODE_PORTS: usize = 4;

/// One full fabric configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Context {
    /// Microinstruction per Dnode (flat index).
    dnode_instr: Vec<MicroInstr>,
    /// Port sources per `(switch * width + lane) * 4 + port`.
    ports: Vec<PortSource>,
    /// Host-capture selector per `(switch * width + out_port)`.
    capture: Vec<HostCapture>,
}

impl Context {
    fn new(geometry: RingGeometry) -> Self {
        Context {
            dnode_instr: vec![MicroInstr::NOP; geometry.dnodes()],
            ports: vec![PortSource::Zero; geometry.switches() * geometry.width() * DNODE_PORTS],
            capture: vec![HostCapture::DISABLED; geometry.switches() * geometry.width()],
        }
    }

    /// Microinstruction of Dnode `dnode`.
    pub fn dnode_instr(&self, dnode: usize) -> MicroInstr {
        self.dnode_instr[dnode]
    }

    /// Source of input `port` (0..4) of the Dnode at (`switch`, `lane`).
    pub fn port(&self, width: usize, switch: usize, lane: usize, port: usize) -> PortSource {
        self.ports[(switch * width + lane) * DNODE_PORTS + port]
    }

    /// Host-capture selector of out-port `port` of `switch`.
    pub fn capture(&self, width: usize, switch: usize, port: usize) -> HostCapture {
        self.capture[switch * width + port]
    }
}

/// The modeled configuration parity of one (context, Dnode) entry: parity
/// of the Dnode's encoded microinstruction XOR its four encoded port
/// words. The ports of flat Dnode `d` sit at `d * 4 ..` because the switch
/// feeding layer `l` carries index `l` (see [`ConfigLayer::set_port`]).
fn entry_parity(context: &Context, dnode: usize) -> bool {
    let mut ones = context.dnode_instr[dnode].encode().count_ones();
    for port in 0..DNODE_PORTS {
        ones += context.ports[dnode * DNODE_PORTS + port]
            .encode()
            .count_ones();
    }
    ones % 2 == 1
}

/// The multi-context configuration memory plus the active-context register.
///
/// Besides the configuration words themselves, the layer keeps a monotonic
/// *write clock* and per-entry epochs recording when each Dnode's
/// configuration (microinstruction or any of its routed input ports) and
/// each context's host-capture table were last written. The predecoded
/// configuration cache compares epochs against the epochs its entries were
/// built at, so a controller write invalidates exactly the touched entries.
/// Epochs are bookkeeping, not architectural state: two layers holding the
/// same configuration compare equal regardless of write history.
#[derive(Clone, Debug)]
pub struct ConfigLayer {
    geometry: RingGeometry,
    pipe_depth: usize,
    contexts: Vec<Context>,
    active: usize,
    /// Context switch staged by the controller, applied at commit.
    staged_active: Option<usize>,
    /// Monotonic write clock: bumped once per configuration write.
    clock: u64,
    /// Per-context, per-Dnode epoch of the last write touching that Dnode's
    /// microinstruction or input routing.
    dnode_epochs: Vec<Vec<u64>>,
    /// Per-context epoch of the last host-capture write.
    capture_epochs: Vec<u64>,
    /// Per-context epoch of the last write of any kind.
    ctx_epochs: Vec<u64>,
    /// Per-(context, Dnode) configuration parity: the expected parity of
    /// the Dnode's stored microinstruction word XOR its four port words.
    /// Legitimate writes keep it in sync; fault-injected corruption
    /// (`corrupt_*`) deliberately does not, which is what
    /// [`ConfigLayer::scrub`] detects. Granularity matches the predecoded
    /// plan cache's per-(context, Dnode) epochs — one scrub group per
    /// cache entry, so a detected corruption invalidates exactly one plan
    /// entry and nothing else.
    parity: Vec<Vec<bool>>,
    /// Per-context count of `corrupt_*` writes since the context last
    /// verified clean. A scrub of a context with a zero count is O(1) —
    /// only corruption can create a mismatch, so the full parity scan
    /// runs only while corruption is actually outstanding. This keeps
    /// the always-armed detection profile effectively free on healthy
    /// machines without changing *when* a mismatch is reported.
    suspect: Vec<u32>,
}

impl PartialEq for ConfigLayer {
    fn eq(&self, other: &Self) -> bool {
        self.geometry == other.geometry
            && self.pipe_depth == other.pipe_depth
            && self.contexts == other.contexts
            && self.active == other.active
            && self.staged_active == other.staged_active
    }
}

impl Eq for ConfigLayer {}

impl ConfigLayer {
    /// A configuration layer of `contexts` all-NOP contexts.
    pub fn new(geometry: RingGeometry, contexts: usize, pipe_depth: usize) -> Self {
        assert!(contexts >= 1, "at least one context is required");
        ConfigLayer {
            geometry,
            pipe_depth,
            contexts: (0..contexts).map(|_| Context::new(geometry)).collect(),
            active: 0,
            staged_active: None,
            clock: 0,
            dnode_epochs: vec![vec![0; geometry.dnodes()]; contexts],
            capture_epochs: vec![0; contexts],
            ctx_epochs: vec![0; contexts],
            parity: {
                let reset = Context::new(geometry);
                let lane = (0..geometry.dnodes())
                    .map(|d| entry_parity(&reset, d))
                    .collect::<Vec<bool>>();
                vec![lane; contexts]
            },
            suspect: vec![0; contexts],
        }
    }

    /// Epoch of the last write of any kind into context `ctx`.
    pub(crate) fn ctx_epoch(&self, ctx: usize) -> u64 {
        self.ctx_epochs[ctx]
    }

    /// Epoch of the last write touching `dnode`'s configuration in `ctx`.
    pub(crate) fn dnode_epoch(&self, ctx: usize, dnode: usize) -> u64 {
        self.dnode_epochs[ctx][dnode]
    }

    /// Epoch of the last host-capture write into context `ctx`.
    pub(crate) fn capture_epoch(&self, ctx: usize) -> u64 {
        self.capture_epochs[ctx]
    }

    /// Bumps the write clock and stamps `ctx` (and `dnode`, when the write
    /// targets one) with the new epoch.
    fn touch(&mut self, ctx: usize, dnode: Option<usize>, capture: bool) {
        self.clock += 1;
        self.ctx_epochs[ctx] = self.clock;
        if let Some(d) = dnode {
            self.dnode_epochs[ctx][d] = self.clock;
        }
        if capture {
            self.capture_epochs[ctx] = self.clock;
        }
    }

    /// Number of contexts.
    pub fn contexts(&self) -> usize {
        self.contexts.len()
    }

    /// Index of the active context.
    pub fn active_index(&self) -> usize {
        self.active
    }

    /// The context id a fault or watchdog report should carry: the staged
    /// select target when a context switch is pending commit (the switch
    /// is architecturally decided at this boundary), else the active
    /// index. Keeps a trip landing on the cycle of a context switch from
    /// naming the stale pre-switch context.
    pub(crate) fn architectural_ctx(&self) -> usize {
        self.staged_active.unwrap_or(self.active)
    }

    /// The active context.
    pub fn active(&self) -> &Context {
        &self.contexts[self.active]
    }

    /// A context by index.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ContextOutOfRange`] for a bad index.
    pub fn context(&self, ctx: usize) -> Result<&Context, ConfigError> {
        self.contexts
            .get(ctx)
            .ok_or(ConfigError::ContextOutOfRange {
                ctx,
                contexts: self.contexts.len(),
            })
    }

    fn context_mut(&mut self, ctx: usize) -> Result<&mut Context, ConfigError> {
        let contexts = self.contexts.len();
        self.contexts
            .get_mut(ctx)
            .ok_or(ConfigError::ContextOutOfRange { ctx, contexts })
    }

    /// Validates that `source` is routable on this machine.
    pub fn validate_source(&self, source: PortSource) -> Result<(), ConfigError> {
        let g = self.geometry;
        match source {
            PortSource::Zero | PortSource::Bus => Ok(()),
            PortSource::PrevOut { lane } => {
                if (lane as usize) < g.width() {
                    Ok(())
                } else {
                    Err(ConfigError::LaneOutOfRange {
                        lane: lane as usize,
                        width: g.width(),
                    })
                }
            }
            PortSource::Pipe {
                switch,
                stage,
                lane,
            } => {
                if switch as usize >= g.switches() {
                    Err(ConfigError::SwitchOutOfRange {
                        switch: switch as usize,
                        switches: g.switches(),
                    })
                } else if stage as usize >= self.pipe_depth {
                    Err(ConfigError::StageOutOfRange {
                        stage: stage as usize,
                        depth: self.pipe_depth,
                    })
                } else if lane as usize >= g.width() {
                    Err(ConfigError::LaneOutOfRange {
                        lane: lane as usize,
                        width: g.width(),
                    })
                } else {
                    Ok(())
                }
            }
            PortSource::HostIn { port } => {
                let ports = 2 * g.width();
                if (port as usize) < ports {
                    Ok(())
                } else {
                    Err(ConfigError::HostPortOutOfRange {
                        port: port as usize,
                        ports,
                    })
                }
            }
        }
    }

    /// Sets the microinstruction of `dnode` in context `ctx`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices.
    pub fn set_dnode_instr(
        &mut self,
        ctx: usize,
        dnode: usize,
        instr: MicroInstr,
    ) -> Result<(), ConfigError> {
        let dnodes = self.geometry.dnodes();
        if dnode >= dnodes {
            return Err(ConfigError::DnodeOutOfRange { dnode, dnodes });
        }
        self.context_mut(ctx)?.dnode_instr[dnode] = instr;
        self.touch(ctx, Some(dnode), false);
        self.refresh_parity(ctx, dnode);
        Ok(())
    }

    /// Sets input `port` (0..4) of the Dnode at (`switch`, `lane`) in
    /// context `ctx`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices or an unroutable
    /// source.
    pub fn set_port(
        &mut self,
        ctx: usize,
        switch: usize,
        lane: usize,
        port: usize,
        source: PortSource,
    ) -> Result<(), ConfigError> {
        let g = self.geometry;
        if switch >= g.switches() {
            return Err(ConfigError::SwitchOutOfRange {
                switch,
                switches: g.switches(),
            });
        }
        if lane >= g.width() {
            return Err(ConfigError::LaneOutOfRange {
                lane,
                width: g.width(),
            });
        }
        if port >= DNODE_PORTS {
            return Err(ConfigError::PortOutOfRange { port });
        }
        self.validate_source(source)?;
        let width = g.width();
        self.context_mut(ctx)?.ports[(switch * width + lane) * DNODE_PORTS + port] = source;
        // The ports of (switch, lane) feed the Dnode at (layer = switch,
        // lane): a switch's downstream layer carries its own index.
        self.touch(ctx, Some(switch * width + lane), false);
        self.refresh_parity(ctx, switch * width + lane);
        Ok(())
    }

    /// Sets input `port` by flat port index (`(switch * width + lane) * 4 +
    /// port`), the controller's `wsw` addressing.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices or an unroutable
    /// source.
    pub fn set_port_flat(
        &mut self,
        ctx: usize,
        flat: usize,
        source: PortSource,
    ) -> Result<(), ConfigError> {
        let width = self.geometry.width();
        let port = flat % DNODE_PORTS;
        let lane = (flat / DNODE_PORTS) % width;
        let switch = flat / (DNODE_PORTS * width);
        self.set_port(ctx, switch, lane, port, source)
    }

    /// Sets the host-capture selector of out-port `port` of `switch` in
    /// context `ctx`. A switch has `width` host-output ports.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices or a captured lane
    /// outside the layer width.
    pub fn set_capture(
        &mut self,
        ctx: usize,
        switch: usize,
        port: usize,
        capture: HostCapture,
    ) -> Result<(), ConfigError> {
        let g = self.geometry;
        if switch >= g.switches() {
            return Err(ConfigError::SwitchOutOfRange {
                switch,
                switches: g.switches(),
            });
        }
        if port >= g.width() {
            return Err(ConfigError::HostPortOutOfRange {
                port,
                ports: g.width(),
            });
        }
        if let Some(lane) = capture.selected() {
            if lane as usize >= g.width() {
                return Err(ConfigError::LaneOutOfRange {
                    lane: lane as usize,
                    width: g.width(),
                });
            }
        }
        let width = g.width();
        self.context_mut(ctx)?.capture[switch * width + port] = capture;
        self.touch(ctx, None, true);
        Ok(())
    }

    /// Immediately selects the active context (programmatic setup).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ContextOutOfRange`] for a bad index.
    pub fn select(&mut self, ctx: usize) -> Result<(), ConfigError> {
        if ctx >= self.contexts.len() {
            return Err(ConfigError::ContextOutOfRange {
                ctx,
                contexts: self.contexts.len(),
            });
        }
        self.active = ctx;
        Ok(())
    }

    /// Stages a context switch that takes effect at the next commit (the
    /// controller's `ctx` instruction semantics).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ContextOutOfRange`] for a bad index.
    pub fn stage_select(&mut self, ctx: usize) -> Result<(), ConfigError> {
        if ctx >= self.contexts.len() {
            return Err(ConfigError::ContextOutOfRange {
                ctx,
                contexts: self.contexts.len(),
            });
        }
        self.staged_active = Some(ctx);
        Ok(())
    }

    /// `true` while a context switch is staged but not yet committed; the
    /// compiled tier refuses to enter a burst in that state (the decoded
    /// path commits the switch at the next cycle boundary).
    pub(crate) fn select_pending(&self) -> bool {
        self.staged_active.is_some()
    }

    /// Applies a staged context switch, if any. Returns `true` if the
    /// active context changed.
    pub fn commit(&mut self) -> bool {
        match self.staged_active.take() {
            Some(ctx) if ctx != self.active => {
                self.active = ctx;
                true
            }
            Some(_) => false,
            None => false,
        }
    }

    /// Recomputes the stored parity of one (context, Dnode) entry,
    /// accepting its current content as ground truth.
    pub(crate) fn refresh_parity(&mut self, ctx: usize, dnode: usize) {
        self.parity[ctx][dnode] = entry_parity(&self.contexts[ctx], dnode);
    }

    /// Recomputes every stored parity bit (used after a remap, and by
    /// [`crate::RingMachine::acknowledge_faults`] to accept a corrupted
    /// configuration as the new ground truth).
    pub(crate) fn refresh_all_parity(&mut self) {
        for ctx in 0..self.contexts.len() {
            for dnode in 0..self.geometry.dnodes() {
                self.refresh_parity(ctx, dnode);
            }
            self.suspect[ctx] = 0;
        }
    }

    /// Fault-injection entry point: overwrites a stored microinstruction
    /// *without* refreshing the entry's parity. Bumps the same write
    /// epochs as a legitimate write, so the predecoded plan cache
    /// re-decodes the corrupted entry — the plan epochs double as scrub
    /// points.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices.
    pub(crate) fn corrupt_dnode_instr(
        &mut self,
        ctx: usize,
        dnode: usize,
        instr: MicroInstr,
    ) -> Result<(), ConfigError> {
        let dnodes = self.geometry.dnodes();
        if dnode >= dnodes {
            return Err(ConfigError::DnodeOutOfRange { dnode, dnodes });
        }
        self.context_mut(ctx)?.dnode_instr[dnode] = instr;
        self.suspect[ctx] = self.suspect[ctx].saturating_add(1);
        self.touch(ctx, Some(dnode), false);
        Ok(())
    }

    /// Fault-injection entry point: overwrites a stored port source
    /// *without* refreshing the entry's parity (see
    /// [`ConfigLayer::corrupt_dnode_instr`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices or an unroutable
    /// source.
    pub(crate) fn corrupt_port(
        &mut self,
        ctx: usize,
        switch: usize,
        lane: usize,
        port: usize,
        source: PortSource,
    ) -> Result<(), ConfigError> {
        let g = self.geometry;
        if switch >= g.switches() {
            return Err(ConfigError::SwitchOutOfRange {
                switch,
                switches: g.switches(),
            });
        }
        if lane >= g.width() {
            return Err(ConfigError::LaneOutOfRange {
                lane,
                width: g.width(),
            });
        }
        if port >= DNODE_PORTS {
            return Err(ConfigError::PortOutOfRange { port });
        }
        self.validate_source(source)?;
        let width = g.width();
        self.context_mut(ctx)?.ports[(switch * width + lane) * DNODE_PORTS + port] = source;
        self.suspect[ctx] = self.suspect[ctx].saturating_add(1);
        self.touch(ctx, Some(switch * width + lane), false);
        Ok(())
    }

    /// Parity-checks every Dnode entry of context `ctx`, returning the
    /// first Dnode whose configuration no longer matches its stored
    /// parity, if any.
    ///
    /// Only `corrupt_*` writes can create a mismatch (legitimate writes
    /// refresh parity in the same call), so the scan short-circuits to
    /// O(1) while the context has no outstanding corruption; a scan that
    /// comes back clean re-arms the short-circuit.
    pub fn scrub(&mut self, ctx: usize) -> Option<usize> {
        if self.suspect[ctx] == 0 {
            return None;
        }
        let context = &self.contexts[ctx];
        let hit =
            (0..self.geometry.dnodes()).find(|&d| entry_parity(context, d) != self.parity[ctx][d]);
        if hit.is_none() {
            self.suspect[ctx] = 0;
        }
        hit
    }

    /// Swaps the configuration roles of two same-layer Dnodes across
    /// every context: their microinstructions and input-port blocks trade
    /// places, and every reference to their *outputs* (forward `PrevOut`
    /// routes, feedback `Pipe` routes and host-capture selectors of the
    /// layer's downstream switch) is rewritten to follow the swap. Used by
    /// [`crate::RingMachine::remap_dnode`] to retire a faulty Dnode onto a
    /// spare.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::DnodeOutOfRange`] for bad indices and
    /// [`ConfigError::RemapLayerMismatch`] if the Dnodes sit in different
    /// layers.
    pub(crate) fn remap_dnodes(&mut self, from: usize, to: usize) -> Result<(), ConfigError> {
        let g = self.geometry;
        let dnodes = g.dnodes();
        for d in [from, to] {
            if d >= dnodes {
                return Err(ConfigError::DnodeOutOfRange { dnode: d, dnodes });
            }
        }
        let (layer, lane_from) = g.dnode_position(from);
        let (layer_to, lane_to) = g.dnode_position(to);
        if layer != layer_to {
            return Err(ConfigError::RemapLayerMismatch { from, to });
        }
        if from == to {
            return Ok(());
        }
        let width = g.width();
        let swap_lane = |lane: usize| {
            if lane == lane_from {
                Some(lane_to)
            } else if lane == lane_to {
                Some(lane_from)
            } else {
                None
            }
        };
        // The switch whose pipeline and captures carry this layer's
        // outputs is the layer's downstream neighbour.
        let downstream = (layer + 1) % g.layers();
        for context in &mut self.contexts {
            context.dnode_instr.swap(from, to);
            for port in 0..DNODE_PORTS {
                context
                    .ports
                    .swap(from * DNODE_PORTS + port, to * DNODE_PORTS + port);
            }
            for (flat, source) in context.ports.iter_mut().enumerate() {
                let owner = flat / (DNODE_PORTS * width);
                match *source {
                    PortSource::PrevOut { lane } if g.upstream_layer(owner) == layer => {
                        if let Some(swapped) = swap_lane(lane as usize) {
                            *source = PortSource::PrevOut {
                                lane: swapped as u8,
                            };
                        }
                    }
                    PortSource::Pipe {
                        switch,
                        stage,
                        lane,
                    } if g.upstream_layer(switch as usize) == layer => {
                        if let Some(swapped) = swap_lane(lane as usize) {
                            *source = PortSource::Pipe {
                                switch,
                                stage,
                                lane: swapped as u8,
                            };
                        }
                    }
                    _ => {}
                }
            }
            for port in 0..width {
                let idx = downstream * width + port;
                if let Some(lane) = context.capture[idx].selected() {
                    if let Some(swapped) = swap_lane(lane as usize) {
                        context.capture[idx] = HostCapture::lane(swapped as u8);
                    }
                }
            }
        }
        // Every context's routing may have changed: bump every epoch and
        // re-baseline every parity bit.
        for ctx in 0..self.contexts.len() {
            for dnode in 0..dnodes {
                self.touch(ctx, Some(dnode), true);
            }
        }
        self.refresh_all_parity();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_ring_isa::dnode::{AluOp, Operand};

    fn layer() -> ConfigLayer {
        ConfigLayer::new(RingGeometry::RING_8, 2, 8)
    }

    #[test]
    fn reset_state_is_all_nops() {
        let cfg = layer();
        assert_eq!(cfg.contexts(), 2);
        assert_eq!(cfg.active_index(), 0);
        assert_eq!(cfg.active().dnode_instr(0), MicroInstr::NOP);
        assert_eq!(cfg.active().port(2, 0, 0, 0), PortSource::Zero);
        assert_eq!(cfg.active().capture(2, 0, 0), HostCapture::DISABLED);
        assert_eq!(cfg.active().capture(2, 3, 1), HostCapture::DISABLED);
    }

    #[test]
    fn writes_land_in_the_right_context() {
        let mut cfg = layer();
        let instr = MicroInstr::op(AluOp::Add, Operand::In1, Operand::In2);
        cfg.set_dnode_instr(1, 3, instr).unwrap();
        assert_eq!(cfg.context(0).unwrap().dnode_instr(3), MicroInstr::NOP);
        assert_eq!(cfg.context(1).unwrap().dnode_instr(3), instr);
    }

    #[test]
    fn rejects_out_of_range_writes() {
        let mut cfg = layer();
        assert!(matches!(
            cfg.set_dnode_instr(2, 0, MicroInstr::NOP),
            Err(ConfigError::ContextOutOfRange { .. })
        ));
        assert!(matches!(
            cfg.set_dnode_instr(0, 8, MicroInstr::NOP),
            Err(ConfigError::DnodeOutOfRange { .. })
        ));
        assert!(matches!(
            cfg.set_port(0, 4, 0, 0, PortSource::Zero),
            Err(ConfigError::SwitchOutOfRange { .. })
        ));
        assert!(matches!(
            cfg.set_port(0, 0, 2, 0, PortSource::Zero),
            Err(ConfigError::LaneOutOfRange { .. })
        ));
        assert!(matches!(
            cfg.set_port(0, 0, 0, 4, PortSource::Zero),
            Err(ConfigError::PortOutOfRange { .. })
        ));
    }

    #[test]
    fn validates_sources() {
        let cfg = layer();
        assert!(cfg.validate_source(PortSource::PrevOut { lane: 1 }).is_ok());
        assert!(matches!(
            cfg.validate_source(PortSource::PrevOut { lane: 2 }),
            Err(ConfigError::LaneOutOfRange { .. })
        ));
        assert!(cfg
            .validate_source(PortSource::Pipe {
                switch: 3,
                stage: 7,
                lane: 1
            })
            .is_ok());
        assert!(matches!(
            cfg.validate_source(PortSource::Pipe {
                switch: 4,
                stage: 0,
                lane: 0
            }),
            Err(ConfigError::SwitchOutOfRange { .. })
        ));
        assert!(matches!(
            cfg.validate_source(PortSource::Pipe {
                switch: 0,
                stage: 8,
                lane: 0
            }),
            Err(ConfigError::StageOutOfRange { .. })
        ));
        assert!(cfg.validate_source(PortSource::HostIn { port: 3 }).is_ok());
        assert!(matches!(
            cfg.validate_source(PortSource::HostIn { port: 4 }),
            Err(ConfigError::HostPortOutOfRange { .. })
        ));
    }

    #[test]
    fn flat_port_addressing_matches_structured() {
        let mut cfg = layer();
        let src = PortSource::PrevOut { lane: 1 };
        // Ring-8: width 2. switch 1, lane 1, port 2 -> flat (1*2+1)*4+2 = 14.
        cfg.set_port_flat(0, 14, src).unwrap();
        assert_eq!(cfg.context(0).unwrap().port(2, 1, 1, 2), src);
    }

    #[test]
    fn capture_validation() {
        let mut cfg = layer();
        assert!(cfg.set_capture(0, 0, 0, HostCapture::lane(1)).is_ok());
        assert!(cfg.set_capture(0, 0, 1, HostCapture::lane(0)).is_ok());
        assert_eq!(cfg.active().capture(2, 0, 1), HostCapture::lane(0));
        assert!(matches!(
            cfg.set_capture(0, 0, 0, HostCapture::lane(2)),
            Err(ConfigError::LaneOutOfRange { .. })
        ));
        assert!(matches!(
            cfg.set_capture(0, 0, 2, HostCapture::DISABLED),
            Err(ConfigError::HostPortOutOfRange { .. })
        ));
        assert!(matches!(
            cfg.set_capture(0, 4, 0, HostCapture::DISABLED),
            Err(ConfigError::SwitchOutOfRange { .. })
        ));
    }

    #[test]
    fn staged_context_switch_applies_at_commit() {
        let mut cfg = layer();
        cfg.stage_select(1).unwrap();
        assert_eq!(cfg.active_index(), 0);
        assert!(cfg.commit());
        assert_eq!(cfg.active_index(), 1);
        // Re-selecting the same context is not a switch.
        cfg.stage_select(1).unwrap();
        assert!(!cfg.commit());
        assert!(cfg.stage_select(2).is_err());
    }

    #[test]
    fn immediate_select() {
        let mut cfg = layer();
        cfg.select(1).unwrap();
        assert_eq!(cfg.active_index(), 1);
        assert!(cfg.select(5).is_err());
    }
}
