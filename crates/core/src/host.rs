//! Host-side data movement: streams, sinks and the link model.
//!
//! The host CPU exchanges data with the ring through the switches' direct
//! dedicated ports (§4.2). We model the host side as *streams*: words the
//! application attaches to a host-input port are delivered into that
//! port's switch FIFO at up to one word per port per cycle, and a sink per
//! host-output port collects captured outputs. An attached stream lives in
//! the port's own [`WordFifo`] buffer, behind the FIFO's tail cursor, so a
//! delivery is a cursor move; this interface keeps the sinks, the link
//! meter and a count of undelivered words.
//!
//! All traffic is metered by a [`LinkModel`]: `Direct` reproduces the
//! APEX-prototype situation (on-chip memories feed the ring at full rate,
//! aggregate ≈3 GB/s for Ring-8 at 200 MHz), `Metered` reproduces the
//! implemented PCI-class 250 MB/s host link of §5.1.

use systolic_ring_isa::Word16;

use crate::error::ConfigError;
use crate::params::LinkModel;
use crate::stats::Stats;
use crate::switch::{SwitchState, WordFifo};

/// Offers the link to one host-input port: delivers its next stream word
/// if one is waiting, the FIFO has room and the allowance is not spent.
#[inline]
fn offer_fill(fifo: &mut WordFifo, allowance: &mut usize, starved: &mut bool) -> bool {
    if !fifo.can_deliver() {
        return false;
    }
    if *allowance == 0 {
        *starved = true;
        return false;
    }
    fifo.deliver();
    if *allowance != usize::MAX {
        *allowance -= 1;
    }
    true
}

/// Offers the link to one open sink: moves the head of its host-output
/// FIFO into the sink if there is one and the allowance is not spent.
#[inline]
fn offer_drain(
    fifo: &mut WordFifo,
    sink: &mut Vec<Word16>,
    allowance: &mut usize,
    starved: &mut bool,
) -> bool {
    if fifo.is_empty() {
        return false;
    }
    if *allowance == 0 {
        *starved = true;
        return false;
    }
    sink.extend(fifo.pop());
    if *allowance != usize::MAX {
        *allowance -= 1;
    }
    true
}

/// Host-side stream endpoints for one machine: the sinks, the link meter
/// (credit and round-robin rotation) and a count of the words attached to
/// host-input ports but not yet delivered. The attached words themselves
/// live in the ports' [`WordFifo`] buffers, behind the tail cursor, so
/// [`HostInterface::inputs_drained`] is O(1) and delivery moves no words.
#[derive(Clone, Debug)]
pub struct HostInterface {
    sinks: Vec<Vec<Vec<Word16>>>,
    /// Open sinks as `(switch, port)`, sorted: the round-robin drain order
    /// from switch 0.
    open: Vec<(usize, usize)>,
    link: LinkModel,
    credit: f64,
    rotate: usize,
    /// Words attached to host-input ports and not yet delivered, summed
    /// over every port.
    undelivered: usize,
}

impl HostInterface {
    /// A host interface for `switches` switches with `out_ports` output
    /// ports each.
    pub fn new(switches: usize, out_ports: usize, link: LinkModel) -> Self {
        HostInterface {
            sinks: vec![vec![Vec::new(); out_ports]; switches],
            open: Vec::new(),
            link,
            credit: 0.0,
            rotate: 0,
            undelivered: 0,
        }
    }

    fn check_out_port(&self, switch: usize, port: usize) -> Result<(), ConfigError> {
        if switch >= self.sinks.len() {
            return Err(ConfigError::SwitchOutOfRange {
                switch,
                switches: self.sinks.len(),
            });
        }
        let ports = self.sinks[switch].len();
        if port >= ports {
            return Err(ConfigError::HostPortOutOfRange { port, ports });
        }
        Ok(())
    }

    /// Opens the sink of (`switch`, `port`): the host will drain that
    /// host-output FIFO (one word per cycle) into the sink. Leave a sink
    /// closed when the configuration controller consumes the captures with
    /// `hpop` instead.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices.
    pub fn open_sink(&mut self, switch: usize, port: usize) -> Result<(), ConfigError> {
        self.check_out_port(switch, port)?;
        if let Err(at) = self.open.binary_search(&(switch, port)) {
            self.open.insert(at, (switch, port));
        }
        Ok(())
    }

    /// Appends words to the stream of host-input port (`switch`, `port`),
    /// stored in that port's FIFO buffer (see [`WordFifo::attach`]).
    pub(crate) fn attach_input<I>(
        &mut self,
        switches: &mut [SwitchState],
        switch: usize,
        port: usize,
        words: I,
    ) -> Result<(), ConfigError>
    where
        I: IntoIterator<Item = Word16>,
    {
        check_input_port(switches, switch, port)?;
        let fifo = &mut switches[switch].host_in[port];
        let before = fifo.pending();
        fifo.attach(words);
        self.undelivered += fifo.pending() - before;
        Ok(())
    }

    /// Words collected by the sink of (`switch`, `port`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices.
    pub fn sink(&self, switch: usize, port: usize) -> Result<&[Word16], ConfigError> {
        self.check_out_port(switch, port)?;
        Ok(&self.sinks[switch][port])
    }

    /// Removes and returns the sink contents of (`switch`, `port`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices.
    pub fn take_sink(&mut self, switch: usize, port: usize) -> Result<Vec<Word16>, ConfigError> {
        self.check_out_port(switch, port)?;
        Ok(std::mem::take(&mut self.sinks[switch][port]))
    }

    /// `true` if every attached stream has been fully delivered.
    pub fn inputs_drained(&self) -> bool {
        self.undelivered == 0
    }

    /// `true` if any sink is open (the host drains captures every cycle).
    pub(crate) fn any_sink_open(&self) -> bool {
        !self.open.is_empty()
    }

    /// Moves words between host streams and switch FIFOs for one cycle.
    pub(crate) fn step(&mut self, switches: &mut [SwitchState], stats: &mut Stats) {
        let (credit, mut allowance) = self.link.allowance(self.credit);
        self.credit = credit;
        let n = switches.len();
        if n == 0 {
            return;
        }
        let start = self.rotate % n;
        self.rotate = self.rotate.wrapping_add(1);
        let mut starved = false;

        // Fill switch host-input FIFOs: at most one word per port per cycle.
        if self.undelivered > 0 {
            let mut delivered = 0;
            let (before, from) = switches.split_at_mut(start);
            for part in [from, before] {
                for switch in part {
                    for fifo in &mut switch.host_in {
                        delivered += usize::from(offer_fill(fifo, &mut allowance, &mut starved));
                    }
                }
            }
            self.undelivered -= delivered;
            stats.host_words_in += delivered as u64;
        }

        // Drain host-output FIFOs into open sinks: one word per out-port
        // per cycle.
        let (before, from) = self
            .open
            .split_at(self.open.partition_point(|&(s, _)| s < start));
        for part in [from, before] {
            for &(s, port) in part {
                let (fifo, sink) = (&mut switches[s].host_out[port], &mut self.sinks[s][port]);
                if offer_drain(fifo, sink, &mut allowance, &mut starved) {
                    stats.host_words_out += 1;
                }
            }
        }

        if starved {
            stats.link_stall_cycles += 1;
        }
    }

    /// The longest compiled burst over which stream delivery is known in
    /// closed form: on a direct link with no open sink, every host-input
    /// port with stream words left gets one word per cycle until its
    /// stream runs dry, as long as its FIFO cannot fill. Returns the
    /// cycles before the fullest such FIFO could fill (`u64::MAX` when no
    /// stream is pending), or `None` on a metered link or with an open
    /// sink, whose traffic moves cycle by cycle.
    pub(crate) fn closed_form_room(&self, switches: &[SwitchState]) -> Option<u64> {
        if self.link != LinkModel::Direct || !self.open.is_empty() {
            return None;
        }
        if self.undelivered == 0 {
            return Some(u64::MAX);
        }
        let room = switches
            .iter()
            .flat_map(|switch| &switch.host_in)
            .filter(|fifo| fifo.pending() > 0)
            .map(WordFifo::room)
            .min();
        Some(room.map_or(u64::MAX, |words| words as u64))
    }

    /// Moves the host side into a [`HostBurst`] for a compiled burst: the
    /// link meter, the ports with undelivered words and the open sinks.
    pub(crate) fn begin_burst(&mut self, switches: &[SwitchState]) -> HostBurst {
        let n = switches.len();
        let in_ports = switches.first().map_or(0, SwitchState::host_in_ports);
        let mut fill = Vec::new();
        let mut fill_from = Vec::with_capacity(n);
        for (s, switch) in switches.iter().enumerate() {
            fill_from.push(fill.len() as u32);
            for (port, fifo) in switch.host_in.iter().enumerate() {
                if fifo.pending() > 0 {
                    fill.push((s * in_ports + port) as u32);
                }
            }
        }
        let drain_from = (0..n)
            .map(|s| self.open.partition_point(|&(os, _)| os < s) as u32)
            .collect();
        let out_ports = self.sinks.first().map_or(0, Vec::len);
        let drain = self
            .open
            .iter()
            .map(|&(s, port)| {
                let sink = std::mem::take(&mut self.sinks[s][port]);
                ((s * out_ports + port) as u32, sink)
            })
            .collect();
        HostBurst {
            link: self.link,
            credit: self.credit,
            start: self.rotate % n.max(1),
            fill,
            fill_from,
            drain,
            drain_from,
            words_in: 0,
            words_out: 0,
            stalls: 0,
        }
    }

    /// Ends a fused burst of `cycles` cycles: takes back the sinks and the
    /// link meter and accounts the burst's traffic.
    pub(crate) fn end_burst(&mut self, burst: HostBurst, cycles: u64, stats: &mut Stats) {
        let out_ports = self.sinks.first().map_or(0, Vec::len);
        for (flat, sink) in burst.drain {
            let flat = flat as usize;
            self.sinks[flat / out_ports][flat % out_ports] = sink;
        }
        self.credit = burst.credit;
        self.rotate = self.rotate.wrapping_add(cycles as usize);
        self.undelivered -= burst.words_in as usize;
        stats.host_words_in += burst.words_in;
        stats.host_words_out += burst.words_out;
        stats.link_stall_cycles += burst.stalls;
    }
}

/// Checks that host-input port (`switch`, `port`) exists.
pub(crate) fn check_input_port(
    switches: &[SwitchState],
    switch: usize,
    port: usize,
) -> Result<(), ConfigError> {
    let state = switches.get(switch).ok_or(ConfigError::SwitchOutOfRange {
        switch,
        switches: switches.len(),
    })?;
    let ports = state.host_in.len();
    if port >= ports {
        return Err(ConfigError::HostPortOutOfRange { port, ports });
    }
    Ok(())
}

/// One machine's host side for the length of a compiled burst (see
/// `crate::fused`). The burst moves every host FIFO into lane-major local
/// tables (`flat port * lanes + lane`); this holds the link meter as plain
/// values, the input ports that still have stream words and the open
/// sinks, so a replayed cycle touches nothing in the machine.
#[derive(Clone, Debug)]
pub(crate) struct HostBurst {
    link: LinkModel,
    credit: f64,
    /// Switch served first this cycle: the interface's rotation, kept as
    /// a running index for the burst.
    start: usize,
    /// Flat host-input ports with undelivered words at entry, in
    /// round-robin order from switch 0.
    fill: Vec<u32>,
    /// Per switch `s`: the first `fill` entry on switch `s` or later.
    fill_from: Vec<u32>,
    /// Open sinks: flat host-output port and the sink itself.
    drain: Vec<(u32, Vec<Word16>)>,
    /// Per switch `s`: the first `drain` entry on switch `s` or later.
    drain_from: Vec<u32>,
    words_in: u64,
    words_out: u64,
    stalls: u64,
}

impl HostBurst {
    /// Accounts `words` delivered by a closed-form stream window.
    pub(crate) fn add_delivered(&mut self, words: u64) {
        self.words_in += words;
    }

    /// One cycle of host traffic for `lane` of `lanes`, over the burst's
    /// host-input (`ins`) and host-output (`outs`) tables: the work of
    /// [`HostInterface::step`], for either link model.
    #[inline(always)]
    pub(crate) fn cycle(
        &mut self,
        lane: usize,
        lanes: usize,
        ins: &mut [WordFifo],
        outs: &mut [WordFifo],
    ) {
        let (credit, mut allowance) = self.link.allowance(self.credit);
        self.credit = credit;
        let start = self.start;
        self.start = if start + 1 == self.fill_from.len() {
            0
        } else {
            start + 1
        };
        let mut starved = false;

        let mut delivered = 0;
        let (before, from) = self.fill.split_at(self.fill_from[start] as usize);
        for ports in [from, before] {
            for &flat in ports {
                let fifo = &mut ins[flat as usize * lanes + lane];
                delivered += u64::from(offer_fill(fifo, &mut allowance, &mut starved));
            }
        }
        self.words_in += delivered;

        let (before, from) = self.drain.split_at_mut(self.drain_from[start] as usize);
        for sinks in [from, before] {
            for (flat, sink) in sinks {
                let fifo = &mut outs[*flat as usize * lanes + lane];
                self.words_out += u64::from(offer_drain(fifo, sink, &mut allowance, &mut starved));
            }
        }

        self.stalls += u64::from(starved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: i16) -> Word16 {
        Word16::from_i16(v)
    }

    fn switches(n: usize, width: usize) -> Vec<SwitchState> {
        (0..n).map(|_| SwitchState::new(4, width, 16)).collect()
    }

    #[test]
    fn direct_link_moves_one_word_per_port_per_cycle() {
        let mut host = HostInterface::new(2, 2, LinkModel::Direct);
        let mut sw = switches(2, 2);
        let mut stats = Stats::new(4);
        host.attach_input(&mut sw, 0, 0, [w(1), w(2), w(3)])
            .unwrap();
        host.attach_input(&mut sw, 1, 3, [w(9)]).unwrap();
        host.step(&mut sw, &mut stats);
        assert_eq!(sw[0].host_in[0].len(), 1);
        assert_eq!(sw[1].host_in[3].len(), 1);
        assert_eq!(stats.host_words_in, 2);
        host.step(&mut sw, &mut stats);
        assert!(!host.inputs_drained());
        host.step(&mut sw, &mut stats);
        assert_eq!(sw[0].host_in[0].len(), 3);
        assert!(host.inputs_drained());
        assert_eq!(stats.link_stall_cycles, 0);
    }

    #[test]
    fn metered_link_throttles() {
        // 2 bytes/cycle = 1 word/cycle across all traffic.
        let mut host = HostInterface::new(
            2,
            1,
            LinkModel::Metered {
                bytes_per_cycle: 2.0,
            },
        );
        let mut sw = switches(2, 1);
        let mut stats = Stats::new(2);
        host.attach_input(&mut sw, 0, 0, vec![w(1); 10]).unwrap();
        host.attach_input(&mut sw, 1, 0, vec![w(2); 10]).unwrap();
        for _ in 0..10 {
            host.step(&mut sw, &mut stats);
        }
        assert_eq!(stats.host_words_in, 10);
        assert!(stats.link_stall_cycles > 0);
        // Round-robin start keeps both switches served.
        assert!(sw[0].host_in[0].len() >= 4);
        assert!(sw[1].host_in[0].len() >= 4);
    }

    #[test]
    fn closed_sinks_do_not_drain() {
        let mut host = HostInterface::new(1, 1, LinkModel::Direct);
        let mut sw = switches(1, 1);
        let mut stats = Stats::new(1);
        sw[0].host_out[0].push(w(5));
        host.step(&mut sw, &mut stats);
        assert!(host.sink(0, 0).unwrap().is_empty());
        assert_eq!(sw[0].host_out[0].len(), 1);
        assert_eq!(stats.host_words_out, 0);
    }

    #[test]
    fn drains_captures_into_sinks() {
        let mut host = HostInterface::new(1, 1, LinkModel::Direct);
        let mut sw = switches(1, 1);
        let mut stats = Stats::new(1);
        host.open_sink(0, 0).unwrap();
        assert!(host.open_sink(9, 0).is_err());
        assert!(host.open_sink(0, 5).is_err());
        sw[0].host_out[0].push(w(5));
        sw[0].host_out[0].push(w(6));
        host.step(&mut sw, &mut stats);
        // One word per out-port per cycle.
        assert_eq!(host.sink(0, 0).unwrap(), &[w(5)]);
        host.step(&mut sw, &mut stats);
        assert_eq!(host.take_sink(0, 0).unwrap(), vec![w(5), w(6)]);
        assert!(host.sink(0, 0).unwrap().is_empty());
        assert_eq!(stats.host_words_out, 2);
    }

    #[test]
    fn parallel_out_ports_drain_together() {
        let mut host = HostInterface::new(1, 2, LinkModel::Direct);
        let mut sw = switches(1, 2);
        let mut stats = Stats::new(1);
        host.open_sink(0, 1).unwrap();
        host.open_sink(0, 0).unwrap();
        host.open_sink(0, 1).unwrap();
        sw[0].host_out[0].push(w(1));
        sw[0].host_out[1].push(w(2));
        host.step(&mut sw, &mut stats);
        assert_eq!(host.sink(0, 0).unwrap(), &[w(1)]);
        assert_eq!(host.sink(0, 1).unwrap(), &[w(2)]);
        assert_eq!(stats.host_words_out, 2);
    }

    #[test]
    fn full_fifo_backpressures_source() {
        let mut host = HostInterface::new(1, 1, LinkModel::Direct);
        // FIFO capacity 2.
        let mut sw = vec![SwitchState::new(4, 1, 2)];
        let mut stats = Stats::new(1);
        host.attach_input(&mut sw, 0, 0, vec![w(1); 5]).unwrap();
        for _ in 0..5 {
            host.step(&mut sw, &mut stats);
        }
        assert_eq!(sw[0].host_in[0].len(), 2);
        assert_eq!(sw[0].host_in[0].pending(), 3);
        assert_eq!(stats.host_words_in, 2);
        assert!(!host.inputs_drained());
    }

    #[test]
    fn bounds_are_checked() {
        let mut host = HostInterface::new(1, 1, LinkModel::Direct);
        let mut sw = switches(1, 1);
        assert!(host.attach_input(&mut sw, 1, 0, []).is_err());
        assert!(host.attach_input(&mut sw, 0, 2, []).is_err());
        assert!(host.sink(3, 0).is_err());
        assert!(host.sink(0, 3).is_err());
        assert!(host.take_sink(3, 0).is_err());
        assert!(check_input_port(&sw, 0, 5).is_err());
        assert!(check_input_port(&sw, 0, 1).is_ok());
    }
}
