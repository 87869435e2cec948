//! Static proof manifests: machine-checkable facts about an object that a
//! verifier established *without simulating it*.
//!
//! The `ringverify` passes in `systolic-ring-lint` produce a
//! [`ProofManifest`] per object; the conformance runner checks its cycle
//! bound against real halts, and the core validates it against the
//! loaded object (`RingMachine::attach_proof`). The manifest lives in
//! this crate — not in the linter — because producer and consumers must
//! agree on its meaning without depending on each other.
//!
//! A manifest is bound to the exact object bytes it was proven over via
//! [`object_hash`]; the core refuses a manifest whose hash does not match
//! the loaded object, so a stale proof is never taken for a fresh one.

use crate::object::Object;

/// Seed of the content hash (the 64-bit FNV offset basis).
const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// Odd multiplier for the per-chunk mix (high bit entropy, as in
/// FxHash-style hashing).
const HASH_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// Hashes an object's canonical byte serialization with a 64-bit
/// xor-rotate-multiply mix over little-endian 8-byte chunks.
///
/// This is the binding key of a [`ProofManifest`]: a proof is valid only
/// for the exact bytes it was derived from. The hash is computed on
/// every `load`, so it processes a word per step rather than a byte (the
/// serialization is self-delimiting, and the length is folded in against
/// zero-padding aliases); it is content binding, not cryptographic.
pub fn object_hash(object: &Object) -> u64 {
    let bytes = object.to_bytes();
    let mut hash = HASH_SEED ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("exact chunk"));
        hash = (hash ^ word).rotate_left(23).wrapping_mul(HASH_MUL);
    }
    let mut tail = [0u8; 8];
    let rest = chunks.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    hash = (hash ^ u64::from_le_bytes(tail))
        .rotate_left(23)
        .wrapping_mul(HASH_MUL);
    hash
}

/// Statically-proven signed range of one Dnode's layer output.
///
/// The hull is over every configuration context the Dnode is programmed
/// in; a dynamic run can never drive the output outside `[lo, hi]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutRange {
    /// Flat Dnode index.
    pub dnode: u16,
    /// Inclusive lower bound of the signed output value.
    pub lo: i16,
    /// Inclusive upper bound of the signed output value.
    pub hi: i16,
}

/// Facts a static verifier proved about one object.
///
/// Every field is one-sided: a populated field is a *guarantee*, an empty
/// one (`None`, `false`, missing range) claims nothing. The consumer
/// contract is documented per field; `core` additionally validates
/// [`ProofManifest::object_hash`] against the loaded object before
/// honoring any of them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProofManifest {
    /// Content hash of the object bytes the proof was derived from
    /// (see [`object_hash`]).
    pub object_hash: u64,
    /// The controller provably halts on every execution path.
    pub halts: bool,
    /// Upper bound on the cycle at which the controller retires `halt`,
    /// over every execution path. `None` when termination could not be
    /// proven or the bound would be vacuous.
    pub cycle_bound: Option<u64>,
    /// Cycle from which the fabric configuration (including the active
    /// context selection) provably never changes again, on any path.
    pub config_stable_from: Option<u64>,
    /// No reconfiguration write can race in-flight pipeline data
    /// (`RL-Hxxx` found nothing on a complete walk).
    pub hazard_free: bool,
    /// Proven signed output ranges, one entry per analyzed Dnode
    /// (ascending by index).
    pub out_ranges: Vec<OutRange>,
}

impl ProofManifest {
    /// An empty manifest bound to `object`: proves nothing, but carries
    /// the binding hash.
    pub fn unproven(object: &Object) -> ProofManifest {
        ProofManifest {
            object_hash: object_hash(object),
            halts: false,
            cycle_bound: None,
            config_stable_from: None,
            hazard_free: false,
            out_ranges: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let a = Object::new();
        let mut b = Object::new();
        assert_eq!(object_hash(&a), object_hash(&a));
        b.code.push(0);
        assert_ne!(object_hash(&a), object_hash(&b));
    }

    #[test]
    fn unproven_manifest_claims_nothing() {
        let object = Object::new();
        let m = ProofManifest::unproven(&object);
        assert_eq!(m.object_hash, object_hash(&object));
        assert!(!m.halts && !m.hazard_free);
        assert!(m.cycle_bound.is_none() && m.config_stable_from.is_none());
        assert!(m.out_ranges.is_empty());
    }
}
