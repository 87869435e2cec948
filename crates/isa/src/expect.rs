//! Embedded conformance expectations for assembled programs.
//!
//! A program source may carry `;!` directive comments describing how the
//! program is to be exercised and judged: which host input streams to
//! attach, which sink streams to check, a simulated-cycle budget and the
//! execution tiers it must agree on. The assembler's directive front end
//! (`systolic-ring-asm`) parses those comments into an [`Expectations`]
//! value carried alongside the [`Object`](crate::object::Object); the
//! conformance runner (`systolic-ring-harness`) consumes it. This module
//! is only the carrier — it owns no parsing and no execution.

/// One execution tier of the simulator.
///
/// The tiers are *architecturally identical* — same outputs, same cycle
/// counts — and differ only in how instruction execution is implemented
/// internally. That identity is exactly what the conformance runner
/// checks (bit-equal sink streams, equal cycle counts across tiers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Interpret raw configuration words every cycle (decode cache and
    /// compiled tier both disabled).
    Slow,
    /// Use the decoded-configuration cache, but never enter fused bursts.
    Decoded,
    /// Full paper-faithful fast path: decode cache plus the compiled
    /// tier's content-keyed program cache.
    Fused,
    /// Everything in `Fused` plus schedule bursts, which also compile the
    /// cycles of a running controller that stays off the datapath.
    Aot,
}

impl Tier {
    /// All tiers, in canonical (slowest-first) order.
    pub const ALL: [Tier; 4] = [Tier::Slow, Tier::Decoded, Tier::Fused, Tier::Aot];

    /// The tier's lower-case name as used by `;! tiers` directives.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Slow => "slow",
            Tier::Decoded => "decoded",
            Tier::Fused => "fused",
            Tier::Aot => "aot",
        }
    }

    /// Parses a lower-case tier name (`slow` / `decoded` / `fused` /
    /// `aot`).
    pub fn parse(name: &str) -> Option<Tier> {
        match name {
            "slow" => Some(Tier::Slow),
            "decoded" => Some(Tier::Decoded),
            "fused" => Some(Tier::Fused),
            "aot" => Some(Tier::Aot),
            _ => None,
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One host input stream bound by a `;! input S.P = ...` directive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InputVector {
    /// Switch index of the host-in port.
    pub switch: usize,
    /// Port index at that switch.
    pub port: usize,
    /// Words delivered in order, one per cycle while available.
    pub words: Vec<i16>,
}

/// How a [`SinkExpectation`] judges the drained sink stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkMatch {
    /// The drained stream must equal the expected values exactly.
    ///
    /// Captures push the selected lane's output *every* cycle (warm-up
    /// values and held outputs included), so exact matching is only
    /// practical for carefully staged streams; most programs use
    /// [`SinkMatch::Contains`].
    Exact,
    /// The expected values must appear in the drained stream in order
    /// (as an ordered subsequence, not necessarily contiguous).
    Contains,
}

/// One sink check bound by a `;! expect S.P = ...` or
/// `;! expect S.P contains ...` directive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SinkExpectation {
    /// Switch index of the host-out port.
    pub switch: usize,
    /// Port index at that switch.
    pub port: usize,
    /// Matching discipline.
    pub matcher: SinkMatch,
    /// The expected values.
    pub values: Vec<i16>,
}

impl SinkExpectation {
    /// Judges a drained sink stream against this expectation.
    pub fn check(&self, stream: &[i16]) -> bool {
        match self.matcher {
            SinkMatch::Exact => stream == self.values.as_slice(),
            SinkMatch::Contains => {
                let mut want = self.values.iter();
                let mut next = want.next();
                for &got in stream {
                    match next {
                        Some(&v) if v == got => next = want.next(),
                        Some(_) => {}
                        None => break,
                    }
                }
                next.is_none()
            }
        }
    }
}

/// The complete expectation block parsed from one program source.
///
/// `Default` is the empty block: no inputs, no sink checks, no budget, and
/// an unspecified tier list (which [`Expectations::effective_tiers`]
/// resolves to every tier).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Expectations {
    /// Host input streams to attach before running.
    pub inputs: Vec<InputVector>,
    /// Sink checks to apply after the run.
    pub sinks: Vec<SinkExpectation>,
    /// Upper bound on simulated cycles (`;! cycles <= N`).
    pub cycle_budget: Option<u64>,
    /// Tiers named by a `;! tiers` directive; empty means unspecified.
    pub tiers: Vec<Tier>,
}

impl Expectations {
    /// `true` when no directive contributed anything.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
            && self.sinks.is_empty()
            && self.cycle_budget.is_none()
            && self.tiers.is_empty()
    }

    /// The tiers the program must pass on: the declared list, or all
    /// of them when no `;! tiers` directive was given.
    pub fn effective_tiers(&self) -> &[Tier] {
        if self.tiers.is_empty() {
            &Tier::ALL
        } else {
            &self.tiers
        }
    }

    /// The distinct `(switch, port)` sinks named by the expectations, in
    /// first-appearance order.
    pub fn sink_ports(&self) -> Vec<(usize, usize)> {
        let mut ports = Vec::new();
        for sink in &self.sinks {
            if !ports.contains(&(sink.switch, sink.port)) {
                ports.push((sink.switch, sink.port));
            }
        }
        ports
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expect(matcher: SinkMatch, values: &[i16]) -> SinkExpectation {
        SinkExpectation {
            switch: 1,
            port: 0,
            matcher,
            values: values.to_vec(),
        }
    }

    #[test]
    fn exact_matching_is_literal() {
        let e = expect(SinkMatch::Exact, &[1, 2, 3]);
        assert!(e.check(&[1, 2, 3]));
        assert!(!e.check(&[1, 2, 3, 0]));
        assert!(!e.check(&[0, 1, 2, 3]));
    }

    #[test]
    fn contains_matches_ordered_subsequences() {
        let e = expect(SinkMatch::Contains, &[3, 4, 10]);
        assert!(e.check(&[0, 3, 3, 4, 0, 10, 0]));
        assert!(e.check(&[3, 4, 10]));
        assert!(!e.check(&[4, 3, 10]), "order matters");
        assert!(!e.check(&[3, 4]), "all values required");
        assert!(expect(SinkMatch::Contains, &[]).check(&[]));
    }

    #[test]
    fn contains_consumes_duplicates_in_order() {
        let e = expect(SinkMatch::Contains, &[9, 9, 13]);
        assert!(e.check(&[2, 9, 0, 9, 13]));
        assert!(!e.check(&[2, 9, 13]), "each duplicate needs its own match");
    }

    #[test]
    fn tier_names_round_trip() {
        for tier in Tier::ALL {
            assert_eq!(Tier::parse(tier.name()), Some(tier));
        }
        assert_eq!(Tier::parse("warp"), None);
    }

    #[test]
    fn effective_tiers_defaults_to_all() {
        let mut e = Expectations::default();
        assert!(e.is_empty());
        assert_eq!(e.effective_tiers(), &Tier::ALL);
        e.tiers = vec![Tier::Fused];
        assert_eq!(e.effective_tiers(), &[Tier::Fused]);
    }

    #[test]
    fn sink_ports_deduplicate_in_order() {
        let e = Expectations {
            sinks: vec![
                expect(SinkMatch::Contains, &[1]),
                SinkExpectation {
                    switch: 2,
                    port: 1,
                    matcher: SinkMatch::Contains,
                    values: vec![2],
                },
                expect(SinkMatch::Contains, &[3]),
            ],
            ..Expectations::default()
        };
        assert_eq!(e.sink_ports(), vec![(1, 0), (2, 1)]);
    }
}
