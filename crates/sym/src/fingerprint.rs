//! Workload identity: the one canonical byte encoding of a workload
//! (template + counting spec), and the FNV-1a fingerprint over it.
//!
//! Every "is this the same workload?" question goes through
//! [`workload_bytes`]. The `icstar-serve` graph cache and certificate
//! store key their maps on the exact bytes, spill files store them and
//! compare them on restore, and [`GuardedTemplate::fingerprint`] /
//! [`CountingSpec::fingerprint`] are [`fnv1a`] over the template and the
//! spec section. The encoding is **injective**: every field is written,
//! collections and strings carry length prefixes and guard kinds carry
//! tags, so two workloads encode to equal bytes exactly when they are
//! `==`. It is also deterministic across processes and runs, so it can
//! be written to disk. Guard tags are append-only: a new guard kind
//! takes the next free tag and never renumbers the others.

use crate::labels::CountingSpec;
use crate::template::{Guard, GuardedTemplate};

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A guard is its tag, then its proposition or state, then its bounds.
fn encode_guard(out: &mut Vec<u8>, g: &Guard) {
    let prop = |out: &mut Vec<u8>, tag: u8, p: &str, bounds: &[u32]| {
        out.push(tag);
        put_str(out, p);
        bounds.iter().for_each(|&k| put_u32(out, k));
    };
    let state = |out: &mut Vec<u8>, tag: u8, words: &[u32]| {
        out.push(tag);
        words.iter().for_each(|&k| put_u32(out, k));
    };
    match g {
        Guard::AtMost(p, k) => prop(out, 0, p, &[*k]),
        Guard::AtLeast(p, k) => prop(out, 1, p, &[*k]),
        Guard::StateAtMost(q, k) => state(out, 2, &[*q, *k]),
        Guard::StateAtLeast(q, k) => state(out, 3, &[*q, *k]),
        Guard::Equals(p, k) => prop(out, 4, p, &[*k]),
        Guard::InRange(p, lo, hi) => prop(out, 5, p, &[*lo, *hi]),
        Guard::StateEquals(q, k) => state(out, 6, &[*q, *k]),
        Guard::StateInRange(q, lo, hi) => state(out, 7, &[*q, *lo, *hi]),
    }
}

/// Appends the template section: states, labels, guarded edges,
/// broadcasts with their response maps, and fairness declarations.
pub(crate) fn encode_template(out: &mut Vec<u8>, template: &GuardedTemplate) {
    let n = template.num_states() as u32;
    put_u32(out, n);
    put_u32(out, template.initial());
    for q in 0..n {
        put_str(out, template.state_name(q));
        let labels = template.labels(q);
        put_u32(out, labels.len() as u32);
        for l in labels {
            put_str(out, l);
        }
        let succs = template.successors(q);
        put_u32(out, succs.len() as u32);
        for (k, &s) in succs.iter().enumerate() {
            put_u32(out, s);
            let guards = template.guards(q, k);
            put_u32(out, guards.len() as u32);
            for g in guards {
                encode_guard(out, g);
            }
        }
    }
    let broadcasts = template.broadcasts();
    put_u32(out, broadcasts.len() as u32);
    for b in broadcasts {
        put_u32(out, b.source());
        put_u32(out, b.target());
        put_u32(out, b.guards().len() as u32);
        for g in b.guards() {
            encode_guard(out, g);
        }
        put_u32(out, b.response().len() as u32);
        for &r in b.response() {
            put_u32(out, r);
        }
    }
    let fairness = template.fairness();
    put_u32(out, fairness.len() as u32);
    for f in fairness {
        put_str(out, f.name());
        put_u32(out, f.moves().len() as u32);
        for &(a, b) in f.moves() {
            put_u32(out, a);
            put_u32(out, b);
        }
    }
}

/// Appends the spec section: the threshold, emptiness and exactly-one
/// atoms, each set in sorted order.
pub(crate) fn encode_spec(out: &mut Vec<u8>, spec: &CountingSpec) {
    let at_least: Vec<_> = spec.at_least_entries().collect();
    put_u32(out, at_least.len() as u32);
    for (p, k) in at_least {
        put_str(out, p);
        put_u32(out, k);
    }
    let zero: Vec<_> = spec.zero_props().collect();
    put_u32(out, zero.len() as u32);
    for p in zero {
        put_str(out, p);
    }
    let one: Vec<_> = spec.exactly_one_props().collect();
    put_u32(out, one.len() as u32);
    for p in one {
        put_str(out, p);
    }
}

/// The canonical encoding of a workload: the template section followed
/// by the spec section. Equal bytes ⇔ equal `(template, spec)`.
pub fn workload_bytes(template: &GuardedTemplate, spec: &CountingSpec) -> Vec<u8> {
    // Room for a typical local state's share of both sections (the
    // gallery encodes to 50–90 bytes per state), so encoding rarely
    // reallocates: growing from empty would cost most of the encoding.
    let mut out = Vec::with_capacity(128 * (template.num_states() + 1));
    encode_template(&mut out, template);
    encode_spec(&mut out, spec);
    out
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::mutex_template;

    #[test]
    fn deterministic_and_sensitive() {
        let t = mutex_template();
        let spec = CountingSpec::standard(&t);
        assert_eq!(workload_bytes(&t, &spec), workload_bytes(&t, &spec));

        // Length prefixes disambiguate: one prop "ab" is not the two
        // props "a" and "b".
        let joined = CountingSpec::new().with_zero("ab");
        let split = CountingSpec::new().with_zero("a").with_zero("b");
        assert_ne!(workload_bytes(&t, &joined), workload_bytes(&t, &split));

        // The whole encoding is exactly the template section followed by
        // the spec section.
        let mut sections = Vec::new();
        encode_template(&mut sections, &t);
        let template_len = sections.len();
        encode_spec(&mut sections, &spec);
        assert_eq!(sections, workload_bytes(&t, &spec));
        assert_eq!(
            t.fingerprint(),
            fnv1a(&sections[..template_len]),
            "template fingerprint is FNV-1a over its section"
        );
        assert_eq!(spec.fingerprint(), fnv1a(&sections[template_len..]));
    }

    #[test]
    fn empty_input_is_offset_basis() {
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
        // The published FNV-1a test vector for "a".
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
