//! Seeded job streams. Every job's wire text is generated here, before
//! any server starts; the program under test only ever receives these
//! texts. The same (workload, seed, size) always yields the same list,
//! and [`digest`] fingerprints it.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::gallery::{Kind, Variant, ROWS};

/// A small, fast, seedable generator (SplitMix64): inputs must not
/// depend on any library the program under test also uses.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// `lo · (hi/lo)^u`: log-uniform in `[lo, hi]` when `u` is uniform.
fn log_scale(lo: f64, hi: f64, u: f64) -> u32 {
    (lo * (hi / lo).powf(u)).round() as u32
}

/// A low-discrepancy point: the `i`-th step of the golden-ratio sequence
/// from `offset`. Any prefix of the sequence covers `[0, 1)` evenly, so a
/// time-bounded run that only reaches a prefix of the list still sees
/// the whole size range in the right proportions.
fn spread(offset: f64, i: usize) -> f64 {
    (offset + i as f64 * 0.618_033_988_749_894_9).fract()
}

/// One question of a job and the verdict it must get.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub formula: &'static str,
    pub expected: bool,
}

/// A counting spec beyond the standard one: the standard atoms plus one
/// threshold atom no formula mentions (`atleast prop k`), which makes
/// the (template, spec, formula) triple new without changing any answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExtraAtom {
    pub prop: usize,
    pub k: u32,
}

/// The family sizes a job asks for.
#[derive(Clone, Copy, Debug)]
pub enum Sizes {
    /// `sizes n;`
    One(u32),
    /// `sizes lo..*;`
    From(u32),
}

/// One generated job: its wire text and what the answer must be.
///
/// The text is stored in two parts so that the many jobs on one
/// (template, spec) share its bytes: `head` is the `job {` line, the
/// template and the spec, `tail` the sizes and checks.
#[derive(Clone, Debug)]
pub struct Job {
    pub variant: Variant,
    pub sizes: Sizes,
    pub checks: Vec<Check>,
    head: Arc<str>,
    tail: String,
}

/// The shared first part of a job's text: the `job {` line, the
/// template and, for an [`ExtraAtom`], the spec.
pub fn head(variant: Variant, extra: Option<ExtraAtom>) -> Arc<str> {
    let mut s = String::from("job {\n");
    s.push_str(&variant.template_text());
    if let Some(extra) = extra {
        let row = variant.row();
        s.push_str("spec {\n");
        for p in row.props {
            let _ = writeln!(
                s,
                "  atleast {p} 1;\n  atleast {p} 2;\n  zero {p};\n  one {p};"
            );
        }
        let _ = writeln!(s, "  atleast {} {};", row.props[extra.prop], extra.k);
        s.push_str("}\n");
    }
    s.into()
}

impl Job {
    fn new(head: &Arc<str>, variant: Variant, sizes: Sizes, checks: Vec<Check>) -> Self {
        let mut job = Job {
            variant,
            sizes,
            checks,
            head: Arc::clone(head),
            tail: String::new(),
        };
        job.tail = job.render_tail();
        job
    }

    /// The job's complete wire text.
    pub fn text(&self) -> String {
        let mut s = String::with_capacity(self.head.len() + self.tail.len());
        s.push_str(&self.head);
        s.push_str(&self.tail);
        s
    }

    fn render_tail(&self) -> String {
        let mut s = String::new();
        match self.sizes {
            Sizes::One(n) => {
                let _ = writeln!(s, "sizes {n};");
            }
            Sizes::From(lo) => {
                let _ = writeln!(s, "sizes {lo}..*;");
            }
        }
        for c in &self.checks {
            let _ = writeln!(s, "check \"{}\": {};", c.name, c.formula);
        }
        s.push_str("}\n");
        s
    }

    /// The family size of a bounded job.
    pub fn n(&self) -> Option<u32> {
        match self.sizes {
            Sizes::One(n) => Some(n),
            Sizes::From(_) => None,
        }
    }
}

fn check(variant: Variant, formula_index: usize) -> Check {
    let q = &variant.row().formulas[formula_index];
    Check {
        name: format!("f{formula_index}"),
        formula: q.text,
        expected: if variant.fair { true } else { q.plain },
    }
}

/// The indices of `variant`'s askable formulas of the given kinds.
fn indices(variant: Variant, kinds: &[Kind]) -> Vec<usize> {
    let asked: Vec<&str> = variant.questions().iter().map(|q| q.0).collect();
    variant
        .row()
        .formulas
        .iter()
        .enumerate()
        .filter(|(_, q)| kinds.contains(&q.kind) && asked.contains(&q.text))
        .map(|(i, _)| i)
        .collect()
}

/// Size ranges of the generated streams; `smoke` shrinks everything
/// so the benchmark's own test finishes in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub cold_lo: f64,
    pub cold_hi: f64,
    /// Jobs at or below this size add the depth-2 nested row.
    pub nested_max: u32,
    pub hot_lo: f64,
    pub hot_hi: f64,
    pub hot_families: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            cold_lo: 1_000.0,
            cold_hi: 30_000.0,
            nested_max: 2_000,
            hot_lo: 500.0,
            hot_hi: 5_000.0,
            hot_families: 16,
        }
    }

    pub fn smoke() -> Self {
        Scale {
            cold_lo: 20.0,
            cold_hi: 200.0,
            nested_max: 60,
            hot_lo: 10.0,
            hot_hi: 60.0,
            hot_families: 12,
        }
    }
}

/// The cold-build stream: `count` jobs, each on a (template, n) pair
/// that appears nowhere earlier in the list.
///
/// Jobs come in blocks of one per template variant. Each variant's
/// sizes walk a low-discrepancy sequence over a log-uniform range, so
/// any prefix of whole blocks covers the range evenly. The shape of the
/// list is fixed, so that every seed puts the same load on the server:
/// the seed only orders each block and jitters each size by up to ±2%.
/// Every job has a safety row; every other job adds a depth-1 indexed
/// row, small sizes add the depth-2 nested row, fair variants add a
/// liveness row, and every third plain job adds a liveness row too (a
/// flip row, which fails there, for some templates).
pub fn cold_build(seed: u64, count: usize, scale: &Scale) -> Vec<Arc<Job>> {
    let mut rng = Rng::new(seed, 1);
    let variants = Variant::all();
    let heads: Vec<Arc<str>> = variants.iter().map(|&v| head(v, None)).collect();
    let mut seen = HashSet::new();
    let mut jobs = Vec::with_capacity(count);
    let mut block = 0usize;
    while jobs.len() < count {
        let mut order: Vec<usize> = (0..variants.len()).collect();
        rng.shuffle(&mut order);
        for vi in order.into_iter().take(count - jobs.len()) {
            let v = variants[vi];
            let offset = spread(0.5, vi * 7);
            let size = f64::from(log_scale(
                scale.cold_lo,
                scale.cold_hi,
                spread(offset, block),
            ));
            let mut n = (size * (0.98 + 0.04 * rng.unit())).round() as u32;
            while !seen.insert((v, n)) {
                n += 1;
            }
            let pick = |kinds: &[Kind], i: usize| {
                let found = indices(v, kinds);
                (!found.is_empty()).then(|| check(v, found[i % found.len()]))
            };
            let mut checks: Vec<Check> = pick(&[Kind::Safety, Kind::SafetyExistential], block)
                .into_iter()
                .collect();
            if (block + vi).is_multiple_of(2) {
                checks.extend(pick(&[Kind::Indexed], 0));
            }
            if n <= scale.nested_max {
                checks.extend(pick(&[Kind::Nested], 0));
            }
            if v.fair || (block + vi).is_multiple_of(3) {
                checks.extend(pick(&[Kind::Liveness], block / 3));
            }
            jobs.push(Arc::new(Job::new(&heads[vi], v, Sizes::One(n), checks)));
        }
        block += 1;
    }
    jobs
}

/// One family of the hot-cache working set.
#[derive(Clone, Debug)]
pub struct Family {
    pub variant: Variant,
    pub n: u32,
    /// Every formula the family's jobs may ask (all widths it needs).
    pub formulas: Vec<usize>,
}

/// The hot-cache stream: `families` warmed by [`warm_jobs`], then
/// `count` timed jobs that each pick a family with Zipf-like skew
/// (frequency proportional to `1 / rank`) and ask 1 to 3 of its
/// formulas. Identical jobs share one text.
///
/// The working set has a fixed shape, so that runs with different
/// seeds put the same load on the cache: every template variant once,
/// then plain variants again at other sizes, on a fixed log-spread of
/// sizes and a fixed popularity order. The seed jitters each size by
/// up to ±2% and draws the job sequence.
pub fn hot_cache(seed: u64, count: usize, scale: &Scale) -> (Vec<Family>, Vec<Arc<Job>>) {
    let mut rng = Rng::new(seed, 2);
    let variants = Variant::all();
    let mut seen = HashSet::new();
    let families: Vec<Family> = (0..scale.hot_families)
        .map(|i| {
            let variant = variants.get(i).copied().unwrap_or(Variant {
                row: 1 + (i - variants.len()) % (ROWS.len() - 1),
                fair: false,
            });
            let size = f64::from(log_scale(scale.hot_lo, scale.hot_hi, spread(0.5, i)));
            let mut n = (size * (0.98 + 0.04 * rng.unit())).round() as u32;
            while !seen.insert((variant, n)) {
                n += 1;
            }
            // Plain families leave out the liveness rows: cold-build asks
            // those, and on the larger plain structures they cost tens of
            // milliseconds, which would turn this cache-bound stream into
            // a few heavy checks.
            let kinds: &[Kind] = if variant.fair {
                &[Kind::Safety, Kind::Liveness]
            } else {
                &[
                    Kind::Safety,
                    Kind::SafetyExistential,
                    Kind::Indexed,
                    Kind::Nested,
                ]
            };
            let formulas = indices(variant, kinds);
            Family {
                variant,
                n,
                formulas,
            }
        })
        .collect();
    let heads: Vec<Arc<str>> = families.iter().map(|f| head(f.variant, None)).collect();
    // One cycle holds the family of rank r round(F / r) times, in
    // seeded order; each family walks a seeded order of its formulas,
    // asking 1, 2, 3, 1, ... of them per job. Any run of a few cycles
    // thus has the same mix of families and formulas.
    let f = families.len();
    let cycle: Vec<usize> = (0..f)
        .flat_map(|r| std::iter::repeat_n(r, (f as f64 / (r + 1) as f64).round() as usize))
        .collect();
    let orders: Vec<Vec<usize>> = families
        .iter()
        .map(|fam| {
            let mut o = fam.formulas.clone();
            rng.shuffle(&mut o);
            o
        })
        .collect();
    let mut asked = vec![0usize; f];
    let mut cursor = vec![0usize; f];
    let mut interned: std::collections::HashMap<(usize, Vec<usize>), Arc<Job>> =
        std::collections::HashMap::new();
    let mut jobs = Vec::with_capacity(count);
    while jobs.len() < count {
        let mut order = cycle.clone();
        rng.shuffle(&mut order);
        for fi in order.into_iter().take(count - jobs.len()) {
            let fam = &families[fi];
            let m = orders[fi].len();
            let k = 1 + asked[fi] % 3.min(m);
            asked[fi] += 1;
            let mut chosen: Vec<usize> = (0..k).map(|j| orders[fi][(cursor[fi] + j) % m]).collect();
            cursor[fi] = (cursor[fi] + k) % m;
            chosen.sort_unstable();
            let job = interned
                .entry((fi, chosen.clone()))
                .or_insert_with(|| {
                    let checks = chosen.iter().map(|&i| check(fam.variant, i)).collect();
                    Arc::new(Job::new(&heads[fi], fam.variant, Sizes::One(fam.n), checks))
                })
                .clone();
            jobs.push(job);
        }
    }
    (families, jobs)
}

/// The jobs that warm the hot-cache working set: per family, one job
/// asking every formula, so every structure width it needs is built.
pub fn warm_jobs(families: &[Family]) -> Vec<Arc<Job>> {
    families
        .iter()
        .map(|fam| {
            let checks = fam
                .formulas
                .iter()
                .map(|&i| check(fam.variant, i))
                .collect();
            let head = head(fam.variant, None);
            Arc::new(Job::new(&head, fam.variant, Sizes::One(fam.n), checks))
        })
        .collect()
}

/// The all-sizes stream: every fifth job (the first included) is an
/// unbounded `sizes lo..*` job on a (template, spec, formula) triple new
/// to the run, made new by one extra threshold atom in the spec; the
/// rest are bounded jobs at n log-uniform over 10³–10⁹ on a triple
/// certified earlier in the list.
pub fn all_sizes(seed: u64, count: usize) -> Vec<Arc<Job>> {
    let mut rng = Rng::new(seed, 3);
    let triples: Vec<(usize, usize)> = ROWS
        .iter()
        .enumerate()
        .flat_map(|(r, row)| (0..row.certified.len()).map(move |c| (r, c)))
        .collect();
    let mut used = HashSet::new();
    let mut written: Vec<(usize, usize, Arc<str>)> = Vec::new();
    let offset = rng.unit();
    let mut jobs = Vec::with_capacity(count);
    for i in 0..count {
        let write = i % 5 == 0;
        let (row, cert, head, sizes) = if write {
            let (row, cert) = triples[(i / 5) % triples.len()];
            let props = ROWS[row].props.len();
            let extra = loop {
                let e = ExtraAtom {
                    prop: rng.below(props),
                    k: 3 + rng.below(1_000_000) as u32,
                };
                if used.insert((row, cert, e)) {
                    break e;
                }
            };
            let h = head(Variant { row, fair: false }, Some(extra));
            written.push((row, cert, Arc::clone(&h)));
            (row, cert, h, Sizes::From(1 + rng.below(8) as u32))
        } else {
            let (row, cert, h) = &written[rng.below(written.len())];
            let n = log_scale(1e3, 1e9, spread(offset, i));
            (*row, *cert, Arc::clone(h), Sizes::One(n))
        };
        let checks = vec![Check {
            name: format!("c{cert}"),
            formula: ROWS[row].certified[cert],
            expected: true,
        }];
        let variant = Variant { row, fair: false };
        jobs.push(Arc::new(Job::new(&head, variant, sizes, checks)));
    }
    jobs
}

/// FNV-1a over the job texts in list order: two runs print the same
/// digest exactly when they generated the same inputs.
pub fn digest(jobs: &[Arc<Job>]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for job in jobs {
        for b in job.head.bytes().chain(job.tail.bytes()).chain([0u8]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
