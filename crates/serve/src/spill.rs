//! Disk persistence for the graph cache: spill and restore of
//! materialized structures.
//!
//! A [`SpillStore`] is a directory of spill files, one per materialized
//! [`CounterGraph`] / [`RepGraph`], named by the template and spec
//! fingerprints ([`GuardedTemplate::fingerprint`],
//! [`CountingSpec::fingerprint`]), `n` and `width`. On a cache miss the
//! store is probed first; a valid file reconstructs the bundle without
//! re-exploration — restarts and horizontally-scaled replicas
//! warm-start from the same directory instead of re-building
//! multi-million-state structures.
//!
//! The on-disk format is **versioned and checksummed**:
//!
//! ```text
//! magic    8 bytes  "ICSPILL!"
//! version  u32 LE   bumped on any incompatible layout change
//! kind     u8       0 = counter graph, 1 = representative graph
//! key      u64 template fp · u64 spec fp · u32 n · u32 width
//! length   u64 LE   payload byte count
//! payload  workload bytes · graph bytes      (see below)
//! checksum u64 LE   FNV-1a over the payload
//! ```
//!
//! The payload starts with the workload's canonical encoding
//! ([`workload_bytes`]), not just its fingerprints. These are the same
//! bytes the in-memory cache and the certificate store key on. On
//! restore the stored bytes must equal the requested workload's, so a
//! fingerprint collision can cost a rejected file but never a wrong
//! structure. The graph bytes then encode the Kripke structure (state
//! names, sorted label atoms, successor lists, initial state), the index
//! set for representative structures, and the compiled
//! [`TransFairness`] (per-requirement state bit sets and transition edge
//! sets, both over the structure's dense state ids — state creation
//! order is preserved on decode, so the indices stay valid).
//!
//! **Any** defect — truncation, checksum mismatch, unknown version,
//! wrong key, workload mismatch, malformed graph bytes — rejects the
//! file silently: the caller falls back to a fresh build (and re-spills
//! it, healing the file). Corruption can cost a rebuild, never a wrong
//! answer. Writes go through a temp file + atomic rename so a crashed
//! writer leaves no half-written spill under the final name.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use icstar_kripke::bits::BitSet;
use icstar_kripke::{Atom, IndexedKripke, Kripke, KripkeBuilder, StateId, CANONICAL_INDEX};
use icstar_mc::fair::{FairReq, TransFairness};
use icstar_sym::{fnv1a, workload_bytes, CounterGraph, CountingSpec, GuardedTemplate, RepGraph};
use icstar_telemetry::Counter;

/// The 8-byte file magic.
pub const SPILL_MAGIC: &[u8; 8] = b"ICSPILL!";

/// The current on-disk format version. Readers reject any other value.
pub const SPILL_VERSION: u32 = 1;

const KIND_COUNTER: u8 = 0;
const KIND_REP: u8 = 1;

/// Decode-side sanity cap on any single element count (states, edges,
/// atoms). Far above any graph the engine can materialize; prevents a
/// corrupt length field from provoking an absurd allocation.
const MAX_COUNT: u32 = 1 << 28;

// ---------------------------------------------------------------------
// Primitive encoding (little-endian, length-prefixed strings).
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked reader over a byte slice; every accessor returns
/// `None` past the end, which rejects the file.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// An element count, rejected when absurd ([`MAX_COUNT`]).
    fn count(&mut self) -> Option<u32> {
        self.u32().filter(|&c| c <= MAX_COUNT)
    }

    fn str(&mut self) -> Option<String> {
        let len = self.count()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------
// Graph encoding.
// ---------------------------------------------------------------------

fn encode_atom(out: &mut Vec<u8>, a: &Atom) {
    match a {
        Atom::Plain(name) => {
            put_u8(out, 0);
            put_str(out, name);
        }
        Atom::Indexed(name, i) => {
            put_u8(out, 1);
            put_str(out, name);
            put_u32(out, *i);
        }
        Atom::ExactlyOne(name) => {
            put_u8(out, 2);
            put_str(out, name);
        }
    }
}

fn decode_atom(c: &mut Cursor) -> Option<Atom> {
    match c.u8()? {
        0 => Some(Atom::Plain(c.str()?)),
        1 => {
            let name = c.str()?;
            Some(Atom::Indexed(name, c.u32()?))
        }
        2 => Some(Atom::ExactlyOne(c.str()?)),
        _ => None,
    }
}

fn encode_kripke(out: &mut Vec<u8>, k: &Kripke) {
    put_u32(out, k.num_states() as u32);
    put_u32(out, k.initial().0);
    for s in k.states() {
        put_str(out, k.state_name(s));
        let atoms = k.label_atoms(s);
        put_u32(out, atoms.len() as u32);
        for a in &atoms {
            encode_atom(out, a);
        }
        let succs = k.successors(s);
        put_u32(out, succs.len() as u32);
        for t in succs {
            put_u32(out, t.0);
        }
    }
}

/// Rebuilds the structure through [`KripkeBuilder`], creating states in
/// file order — dense [`StateId`]s come out identical to the encoded
/// ones, which the fairness requirements' state indices rely on.
fn decode_kripke(c: &mut Cursor) -> Option<Kripke> {
    let n = c.count()?;
    let init = c.u32()?;
    if init >= n {
        return None;
    }
    let mut builder = KripkeBuilder::new();
    let mut ids: Vec<StateId> = Vec::with_capacity(n as usize);
    let mut adjacency: Vec<Vec<u32>> = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let name = c.str()?;
        let natoms = c.count()?;
        let mut atoms = Vec::with_capacity(natoms as usize);
        for _ in 0..natoms {
            atoms.push(decode_atom(c)?);
        }
        ids.push(builder.state_labeled(name, atoms));
        let nsuccs = c.count()?;
        let mut succs = Vec::with_capacity(nsuccs as usize);
        for _ in 0..nsuccs {
            let t = c.u32()?;
            if t >= n {
                return None;
            }
            succs.push(t);
        }
        adjacency.push(succs);
    }
    for (q, succs) in adjacency.iter().enumerate() {
        for &t in succs {
            builder.edge(ids[q], ids[t as usize]);
        }
    }
    builder.build(ids[init as usize]).ok()
}

fn encode_fairness(out: &mut Vec<u8>, f: &TransFairness) {
    let reqs = f.reqs();
    put_u32(out, reqs.len() as u32);
    for req in reqs {
        let states = req.states();
        put_u32(out, states.capacity() as u32);
        put_u32(out, states.len() as u32);
        for bit in states.iter() {
            put_u32(out, bit as u32);
        }
        let edges = req.edges();
        put_u32(out, edges.len() as u32);
        for &(a, b) in edges {
            put_u32(out, a);
            put_u32(out, b);
        }
    }
}

fn decode_fairness(c: &mut Cursor, num_states: u32) -> Option<TransFairness> {
    let nreqs = c.count()?;
    let mut reqs = Vec::with_capacity(nreqs as usize);
    for _ in 0..nreqs {
        let capacity = c.count()?;
        if capacity > num_states {
            return None;
        }
        let mut states = BitSet::new(capacity as usize);
        let nbits = c.count()?;
        for _ in 0..nbits {
            let bit = c.u32()?;
            if bit >= capacity {
                return None;
            }
            states.insert(bit as usize);
        }
        let nedges = c.count()?;
        let mut edges = Vec::with_capacity(nedges as usize);
        for _ in 0..nedges {
            let a = c.u32()?;
            let b = c.u32()?;
            if a >= num_states || b >= num_states {
                return None;
            }
            edges.push((a, b));
        }
        reqs.push(FairReq::new(states, edges));
    }
    Some(TransFairness::new(reqs))
}

fn decode_indices(c: &mut Cursor) -> Option<Vec<u32>> {
    let n = c.count()?;
    let mut indices = Vec::with_capacity(n as usize);
    for _ in 0..n {
        indices.push(c.u32()?);
    }
    // Mirror `IndexedKripke::new`'s invariants as rejections instead of
    // panics: strictly increasing (sorted, duplicate-free), canonical
    // index absent.
    if indices.windows(2).any(|w| w[0] >= w[1]) || indices.contains(&CANONICAL_INDEX) {
        return None;
    }
    Some(indices)
}

/// A label-set check `IndexedKripke::new` would otherwise assert: every
/// indexed atom's index must be in the index set.
fn indices_cover_labels(k: &Kripke, indices: &[u32]) -> bool {
    k.states().all(|s| {
        k.label_atoms(s)
            .iter()
            .all(|a| a.index().is_none_or(|i| indices.binary_search(&i).is_ok()))
    })
}

// ---------------------------------------------------------------------
// File assembly.
// ---------------------------------------------------------------------

struct FileKey {
    kind: u8,
    template_fp: u64,
    spec_fp: u64,
    n: u32,
    width: u32,
}

fn assemble(key: &FileKey, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 64);
    out.extend_from_slice(SPILL_MAGIC);
    put_u32(&mut out, SPILL_VERSION);
    put_u8(&mut out, key.kind);
    put_u64(&mut out, key.template_fp);
    put_u64(&mut out, key.spec_fp);
    put_u32(&mut out, key.n);
    put_u32(&mut out, key.width);
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    put_u64(&mut out, fnv1a(payload));
    out
}

/// Checks magic, version, kind, key, length, and checksum; returns the
/// verified payload slice.
fn verified_payload<'a>(bytes: &'a [u8], key: &FileKey) -> Option<&'a [u8]> {
    let mut c = Cursor::new(bytes);
    if c.bytes(8)? != SPILL_MAGIC {
        return None;
    }
    if c.u32()? != SPILL_VERSION {
        return None;
    }
    if c.u8()? != key.kind
        || c.u64()? != key.template_fp
        || c.u64()? != key.spec_fp
        || c.u32()? != key.n
        || c.u32()? != key.width
    {
        return None;
    }
    let len = c.u64()?;
    let len = usize::try_from(len).ok()?;
    let payload = c.bytes(len)?;
    let checksum = c.u64()?;
    if !c.at_end() || fnv1a(payload) != checksum {
        return None;
    }
    Some(payload)
}

// ---------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------

/// A directory of spill files the [`GraphCache`](crate::GraphCache)
/// persists materialized structures into. See the module docs for the
/// file format and rejection rules. All methods are `&self` and
/// thread-safe; concurrent writers of the same key race benignly (both
/// write the same bytes, the rename is atomic).
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    spills: Counter,
    restores: Counter,
    rejects: Counter,
    warm_files: u64,
}

impl SpillStore {
    /// Opens (creating if needed) the spill directory.
    ///
    /// # Errors
    ///
    /// Propagates directory creation/listing failures.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let warm_files = fs::read_dir(&dir)?
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "spill"))
            .count() as u64;
        Ok(SpillStore {
            dir,
            spills: Counter::detached(),
            restores: Counter::detached(),
            rejects: Counter::detached(),
            warm_files,
        })
    }

    /// The directory spill files live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Spill files present when the store was opened — the warm-start
    /// inventory a restarted server begins with.
    pub fn warm_files(&self) -> u64 {
        self.warm_files
    }

    /// Structures written to disk by this store.
    pub fn spills(&self) -> u64 {
        self.spills.get()
    }

    /// Structures reconstructed from disk by this store.
    pub fn restores(&self) -> u64 {
        self.restores.get()
    }

    /// Files probed but rejected (truncated, corrupt, version- or
    /// workload-mismatched) — each one cost a rebuild, never a wrong
    /// structure.
    pub fn rejects(&self) -> u64 {
        self.rejects.get()
    }

    pub(crate) fn counters(&self) -> (&Counter, &Counter, &Counter) {
        (&self.spills, &self.restores, &self.rejects)
    }

    /// The file a counter-graph spill for this workload lives at.
    /// Fingerprints name the file, so fair/unfair or otherwise distinct
    /// templates never alias; colliding fingerprints are caught by the
    /// stored workload bytes on restore.
    pub fn counter_path(&self, template: &GuardedTemplate, spec: &CountingSpec, n: u32) -> PathBuf {
        self.dir.join(format!(
            "c-{:016x}-{:016x}-n{}.spill",
            template.fingerprint(),
            spec.fingerprint(),
            n
        ))
    }

    /// The file a representative-graph spill for this workload lives at.
    pub fn rep_path(
        &self,
        template: &GuardedTemplate,
        spec: &CountingSpec,
        n: u32,
        width: u32,
    ) -> PathBuf {
        self.dir.join(format!(
            "r-{:016x}-{:016x}-n{}-w{}.spill",
            template.fingerprint(),
            spec.fingerprint(),
            n,
            width
        ))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)
    }

    fn counter_key(template: &GuardedTemplate, spec: &CountingSpec, n: u32) -> FileKey {
        FileKey {
            kind: KIND_COUNTER,
            template_fp: template.fingerprint(),
            spec_fp: spec.fingerprint(),
            n,
            width: 0,
        }
    }

    fn rep_key(template: &GuardedTemplate, spec: &CountingSpec, n: u32, width: u32) -> FileKey {
        FileKey {
            kind: KIND_REP,
            template_fp: template.fingerprint(),
            spec_fp: spec.fingerprint(),
            n,
            width,
        }
    }

    /// Writes `graph` to disk. Write failures (permissions, full disk)
    /// are swallowed — persistence is an optimization, never load-bearing.
    pub fn spill_counter(
        &self,
        template: &GuardedTemplate,
        spec: &CountingSpec,
        n: u32,
        graph: &CounterGraph,
    ) {
        let mut payload = Vec::new();
        let workload = workload_bytes(template, spec);
        put_u32(&mut payload, workload.len() as u32);
        payload.extend_from_slice(&workload);
        encode_kripke(&mut payload, &graph.kripke);
        encode_fairness(&mut payload, &graph.fairness);
        let bytes = assemble(&Self::counter_key(template, spec, n), &payload);
        if self
            .write_atomic(&self.counter_path(template, spec, n), &bytes)
            .is_ok()
        {
            self.spills.inc();
        }
    }

    /// Writes `graph` to disk; failures are swallowed as in
    /// [`SpillStore::spill_counter`].
    pub fn spill_rep(
        &self,
        template: &GuardedTemplate,
        spec: &CountingSpec,
        n: u32,
        width: u32,
        graph: &RepGraph,
    ) {
        let mut payload = Vec::new();
        let workload = workload_bytes(template, spec);
        put_u32(&mut payload, workload.len() as u32);
        payload.extend_from_slice(&workload);
        encode_kripke(&mut payload, graph.kripke.kripke());
        put_u32(&mut payload, graph.kripke.indices().len() as u32);
        for &i in graph.kripke.indices() {
            put_u32(&mut payload, i);
        }
        encode_fairness(&mut payload, &graph.fairness);
        let bytes = assemble(&Self::rep_key(template, spec, n, width), &payload);
        if self
            .write_atomic(&self.rep_path(template, spec, n, width), &bytes)
            .is_ok()
        {
            self.spills.inc();
        }
    }

    /// Reads back the verified payload of a spill file: `None` when the
    /// file is absent; counts a reject when it is present but defective.
    fn read_payload(&self, path: &Path, key: &FileKey) -> Option<Vec<u8>> {
        let bytes = fs::read(path).ok()?;
        match verified_payload(&bytes, key) {
            Some(payload) => Some(payload.to_vec()),
            None => {
                self.rejects.inc();
                None
            }
        }
    }

    /// The stored workload bytes must equal the requested workload's
    /// canonical encoding — the bytes the in-memory cache keys on. The
    /// caller counts the reject.
    fn verified_graph_cursor<'a>(
        payload: &'a [u8],
        template: &GuardedTemplate,
        spec: &CountingSpec,
    ) -> Option<Cursor<'a>> {
        let mut c = Cursor::new(payload);
        let len = c.count()? as usize;
        let stored = c.bytes(len)?;
        (stored == workload_bytes(template, spec).as_slice()).then_some(c)
    }

    /// Restores the counter graph of this workload from disk, or `None`
    /// (absent, or rejected per the module rules).
    pub fn restore_counter(
        &self,
        template: &GuardedTemplate,
        spec: &CountingSpec,
        n: u32,
    ) -> Option<CounterGraph> {
        let path = self.counter_path(template, spec, n);
        let payload = self.read_payload(&path, &Self::counter_key(template, spec, n))?;
        let graph = (|| {
            let mut c = Self::verified_graph_cursor(&payload, template, spec)?;
            let kripke = decode_kripke(&mut c)?;
            let fairness = decode_fairness(&mut c, kripke.num_states() as u32)?;
            if !c.at_end() {
                return None;
            }
            Some(CounterGraph { kripke, fairness })
        })();
        match graph {
            Some(g) => {
                self.restores.inc();
                Some(g)
            }
            None => {
                self.rejects.inc();
                None
            }
        }
    }

    /// Restores the width-`width` representative graph of this workload
    /// from disk, or `None` (absent, or rejected per the module rules).
    pub fn restore_rep(
        &self,
        template: &GuardedTemplate,
        spec: &CountingSpec,
        n: u32,
        width: u32,
    ) -> Option<RepGraph> {
        let path = self.rep_path(template, spec, n, width);
        let payload = self.read_payload(&path, &Self::rep_key(template, spec, n, width))?;
        let graph = (|| {
            let mut c = Self::verified_graph_cursor(&payload, template, spec)?;
            let kripke = decode_kripke(&mut c)?;
            let indices = decode_indices(&mut c)?;
            if !indices_cover_labels(&kripke, &indices) {
                return None;
            }
            let fairness = decode_fairness(&mut c, kripke.num_states() as u32)?;
            if !c.at_end() {
                return None;
            }
            Some(RepGraph {
                kripke: IndexedKripke::new(kripke, indices),
                fairness,
            })
        })();
        match graph {
            Some(g) => {
                self.restores.inc();
                Some(g)
            }
            None => {
                self.rejects.inc();
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_sym::{mutex_template, SymEngine};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "icstar-spill-{}-{}-{tag}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn kripke_eq(a: &Kripke, b: &Kripke) -> bool {
        a.num_states() == b.num_states()
            && a.initial() == b.initial()
            && a.states().all(|s| {
                a.state_name(s) == b.state_name(s)
                    && a.label_atoms(s) == b.label_atoms(s)
                    && a.successors(s) == b.successors(s)
            })
    }

    #[test]
    fn counter_round_trip_is_structural_identity() {
        let dir = temp_dir("counter-rt");
        let store = SpillStore::open(&dir).unwrap();
        let t = mutex_template();
        let s = CountingSpec::standard(&t);
        let engine = SymEngine::new(t.clone());
        let built = engine.counter_graph(7);
        store.spill_counter(&t, &s, 7, &built);
        assert_eq!(store.spills(), 1);
        let restored = store.restore_counter(&t, &s, 7).expect("restores");
        assert!(kripke_eq(&built.kripke, &restored.kripke));
        assert_eq!(built.fairness.reqs().len(), restored.fairness.reqs().len());
        assert_eq!(store.restores(), 1);
        assert_eq!(store.rejects(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rep_round_trip_preserves_indices_and_fairness() {
        let dir = temp_dir("rep-rt");
        let store = SpillStore::open(&dir).unwrap();
        let t = mutex_template();
        let s = CountingSpec::standard(&t);
        let engine = SymEngine::new(t.clone());
        let built = engine.representative_graph(6, 2).unwrap();
        store.spill_rep(&t, &s, 6, 2, &built);
        let restored = store.restore_rep(&t, &s, 6, 2).expect("restores");
        assert!(kripke_eq(built.kripke.kripke(), restored.kripke.kripke()));
        assert_eq!(built.kripke.indices(), restored.kripke.indices());
        assert_eq!(built.fairness.reqs().len(), restored.fairness.reqs().len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let dir = temp_dir("version");
        let store = SpillStore::open(&dir).unwrap();
        let t = mutex_template();
        let s = CountingSpec::standard(&t);
        let engine = SymEngine::new(t.clone());
        store.spill_counter(&t, &s, 4, &engine.counter_graph(4));
        let path = store.counter_path(&t, &s, 4);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] ^= 0xff; // version field
        fs::write(&path, &bytes).unwrap();
        assert!(store.restore_counter(&t, &s, 4).is_none());
        assert_eq!(store.rejects(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_corruption_is_rejected() {
        let dir = temp_dir("corrupt");
        let store = SpillStore::open(&dir).unwrap();
        let t = mutex_template();
        let s = CountingSpec::standard(&t);
        let engine = SymEngine::new(t.clone());
        store.spill_counter(&t, &s, 4, &engine.counter_graph(4));
        let path = store.counter_path(&t, &s, 4);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(store.restore_counter(&t, &s, 4).is_none());
        assert_eq!(store.rejects(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_is_rejected() {
        let dir = temp_dir("trunc");
        let store = SpillStore::open(&dir).unwrap();
        let t = mutex_template();
        let s = CountingSpec::standard(&t);
        let engine = SymEngine::new(t.clone());
        store.spill_counter(&t, &s, 4, &engine.counter_graph(4));
        let path = store.counter_path(&t, &s, 4);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        assert!(store.restore_counter(&t, &s, 4).is_none());
        assert_eq!(store.rejects(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_not_a_reject() {
        let dir = temp_dir("missing");
        let store = SpillStore::open(&dir).unwrap();
        let t = mutex_template();
        let s = CountingSpec::standard(&t);
        assert!(store.restore_counter(&t, &s, 3).is_none());
        assert_eq!(store.rejects(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_files_counts_existing_spills() {
        let dir = temp_dir("warm");
        let t = mutex_template();
        let s = CountingSpec::standard(&t);
        let engine = SymEngine::new(t.clone());
        {
            let store = SpillStore::open(&dir).unwrap();
            assert_eq!(store.warm_files(), 0);
            store.spill_counter(&t, &s, 4, &engine.counter_graph(4));
            store.spill_counter(&t, &s, 5, &engine.counter_graph(5));
        }
        let reopened = SpillStore::open(&dir).unwrap();
        assert_eq!(reopened.warm_files(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
