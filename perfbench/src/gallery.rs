//! The benchmark's inputs and their known answers: the six gallery
//! templates of `docs/WORKLOADS.md`, their weakly fair variants (the
//! liveness rows of `tests/workloads.rs`), and a hand-written table of
//! expected verdicts transcribed from those two files.
//!
//! Nothing here is computed by icstar. The template texts are written
//! out as wire text, so the program receives exactly these bytes.

/// What a formula is, which decides which jobs carry it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A counting-atom safety row that only uses universal path
    /// quantifiers: it holds on all paths, hence on the weakly fair
    /// subset of paths too, so fair variants carry it as well.
    Safety,
    /// A counting-atom row with an existential path quantifier
    /// (`EF`): asked on the unconstrained original only.
    SafetyExistential,
    /// A depth-1 indexed row (`forall i. …`): width-1 representative.
    Indexed,
    /// The depth-2 nested row: width-2 representative.
    Nested,
    /// A liveness row: holds on the weakly fair variant; on the
    /// unconstrained original it holds only if the row is degenerate,
    /// and fails on the flip rows.
    Liveness,
}

/// One formula of a gallery row with its documented verdicts.
#[derive(Clone, Copy, Debug)]
pub struct Formula {
    pub text: &'static str,
    pub kind: Kind,
    /// Expected verdict on the unconstrained original.
    pub plain: bool,
}

/// One gallery template with everything the benchmark asks about it.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    pub name: &'static str,
    /// Wire text of the unconstrained original (`docs/WORKLOADS.md`).
    pub template: &'static str,
    /// The `fair` clauses that make the weakly fair variant.
    pub fairness: &'static str,
    /// Local propositions, for writing out counting specs.
    pub props: &'static [&'static str],
    pub formulas: &'static [Formula],
    /// The certified-cutoff column: formulas that hold at every family
    /// size and whose certificate covers every n at or above the cutoff.
    pub certified: &'static [&'static str],
}

const fn f(text: &'static str, kind: Kind, plain: bool) -> Formula {
    Formula { text, kind, plain }
}

use Kind::*;

pub const ROWS: &[Row] = &[
    Row {
        name: "fig41",
        template: "template {
  state a [a];
  state b [b];
  init a;
  edge a -> b;
  edge b -> b;
",
        fairness: "  fair fall a -> b;\n",
        props: &["a", "b"],
        formulas: &[
            f("AG (b_ge1 -> AG b_ge1)", Safety, true),
            f("EF a_eq0", SafetyExistential, true),
            f("forall i. exists j. EF (b[i] & a[j])", Nested, true),
            // Flip rows: they fail while b-spinners may starve the fallers.
            f("AF a_eq0", Liveness, false),
            f("forall i. AF b[i]", Liveness, false),
            f("AG AF b_ge1", Liveness, true),
        ],
        certified: &["AG EF b_ge1"],
    },
    Row {
        name: "mutex",
        template: "template {
  state idle [idle];
  state try [try];
  state crit [crit];
  init idle;
  edge idle -> try;
  edge try -> crit when #crit <= 0;
  edge crit -> idle;
",
        fairness: "  fair enter try -> crit;\n",
        props: &["idle", "try", "crit"],
        formulas: &[
            f("AG !crit_ge2", Safety, true),
            f("forall i. AG (try[i] -> EF crit[i])", Indexed, true),
            f("forall i. exists j. AG (crit[i] -> !crit[j])", Nested, true),
            // Degenerate rows: they hold unfair as well.
            f("AG AF crit_ge1", Liveness, true),
            f("AG AF crit_eq0", Liveness, true),
        ],
        certified: &["AG !crit_ge2", "forall i. AG (try[i] -> EF crit[i])"],
    },
    Row {
        name: "ring-station",
        template: "template {
  state s0 [s0];
  state s1 [s1];
  state s2 [s2];
  state s3 [s3];
  init s0;
  edge s0 -> s1 when @s1 <= 0;
  edge s1 -> s2 when @s2 <= 0;
  edge s2 -> s3 when @s3 <= 0;
  edge s3 -> s0;
",
        fairness: "  fair advance s0 -> s1, s1 -> s2, s2 -> s3, s3 -> s0;\n",
        props: &["s0", "s1", "s2", "s3"],
        formulas: &[
            f("AG !s1_ge2", Safety, true),
            f("AG !s2_ge2", Safety, true),
            f("AG !s3_ge2", Safety, true),
            f("forall i. EF s3[i]", Indexed, true),
            f("forall i. exists j. EF (s1[i] & s0[j])", Nested, true),
            // Degenerate rows.
            f("AG AF s3_ge1", Liveness, true),
            f("AG AF s0_ge1", Liveness, true),
        ],
        certified: &["AG !s1_ge2"],
    },
    Row {
        name: "barrier",
        template: "template {
  state work0 [working, phase0];
  state done0 [atbar, phase0];
  state work1 [working, phase1];
  state done1 [atbar, phase1];
  init work0;
  edge work0 -> done0;
  edge done0 -> done0;
  edge work1 -> done1;
  edge done1 -> done1;
  bcast done0 -> work1 [done0 -> work1] when @work0 == 0;
  bcast done1 -> work0 [done1 -> work0] when @work1 == 0;
",
        fairness: "  fair arrive work0 -> done0, work1 -> done1;
  fair release done0 -> work1, done1 -> work0;\n",
        props: &["working", "atbar", "phase0", "phase1"],
        formulas: &[
            f("AG (phase1_ge1 -> phase0_eq0)", Safety, true),
            f("AG (phase0_ge1 -> phase1_eq0)", Safety, true),
            f("forall i. AG (phase0[i] -> EF phase1[i])", Indexed, true),
            f(
                "forall i. forall j. AG !(phase0[i] & phase1[j])",
                Nested,
                true,
            ),
            // Flip rows: the barrier may spin at done0/done1 forever.
            f("AG AF phase1_ge1", Liveness, false),
            f("AG AF phase0_ge1", Liveness, false),
            f("forall i. AG AF phase1[i]", Liveness, false),
        ],
        certified: &["AG (phase1_ge1 -> phase0_eq0)"],
    },
    Row {
        name: "msi",
        template: "template {
  state invalid [invalid];
  state shared [shared];
  state modified [modified];
  init invalid;
  edge invalid -> shared when @modified == 0;
  edge shared -> invalid;
  edge modified -> invalid;
  bcast invalid -> shared [modified -> shared] when @modified >= 1;
  bcast invalid -> modified [shared -> invalid, modified -> invalid];
  bcast shared -> modified [shared -> invalid, modified -> invalid];
",
        fairness: "  fair writeback modified -> invalid;\n",
        props: &["invalid", "shared", "modified"],
        formulas: &[
            f("AG !modified_ge2", Safety, true),
            f("AG (modified_ge1 -> shared_eq0)", Safety, true),
            f("AG (modified_ge1 -> one(modified))", Safety, true),
            f("forall i. AG (invalid[i] -> EF modified[i])", Indexed, true),
            f(
                "forall i. exists j. AG (modified[i] -> !modified[j])",
                Nested,
                true,
            ),
            // Flip row: a write-miss broadcast can keep a writer forever.
            f("AG AF modified_eq0", Liveness, false),
        ],
        certified: &["AG !modified_ge2"],
    },
    Row {
        name: "wakeup",
        template: "template {
  state asleep [asleep];
  state awake [awake];
  state working [working];
  init asleep;
  edge asleep -> asleep;
  edge awake -> working;
  edge working -> awake;
  bcast asleep -> awake [asleep -> awake] when @awake == 0, @working == 0;
  bcast working -> asleep [awake -> asleep, working -> asleep] when @awake in 0..1;
",
        fairness: "  fair wake asleep -> awake;\n",
        props: &["asleep", "awake", "working"],
        formulas: &[
            f("AG ((awake_ge1 | working_ge1) -> asleep_eq0)", Safety, true),
            f("AG EF asleep_ge1", SafetyExistential, true),
            f("forall i. AG (asleep[i] -> EF working[i])", Indexed, true),
            f(
                "forall i. forall j. AG !(asleep[i] & awake[j])",
                Nested,
                true,
            ),
            // Flip rows: the protocol may doze forever.
            f("AF asleep_eq0", Liveness, false),
            f("AG AF asleep_eq0", Liveness, false),
        ],
        certified: &["AG ((awake_ge1 | working_ge1) -> asleep_eq0)"],
    },
];

/// A template the benchmark submits: a gallery row, unconstrained or
/// with its weak-fairness groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Variant {
    pub row: usize,
    pub fair: bool,
}

impl Variant {
    /// Every row in both forms: twelve templates.
    pub fn all() -> Vec<Variant> {
        (0..ROWS.len())
            .flat_map(|row| [false, true].map(|fair| Variant { row, fair }))
            .collect()
    }

    pub fn row(self) -> &'static Row {
        &ROWS[self.row]
    }

    pub fn name(self) -> String {
        let name = self.row().name;
        if self.fair {
            format!("{name}+fair")
        } else {
            name.to_string()
        }
    }

    /// The template's wire text.
    pub fn template_text(self) -> String {
        let row = self.row();
        let mut text = row.template.to_string();
        if self.fair {
            text.push_str(row.fairness);
        }
        text.push_str("}\n");
        text
    }

    /// The formulas a job on this template may ask, with the verdict
    /// each must get. Fair variants ask universal safety and liveness
    /// rows only, the two kinds whose fair verdicts the gallery states.
    pub fn questions(self) -> Vec<(&'static str, Kind, bool)> {
        self.row()
            .formulas
            .iter()
            .filter(|q| !self.fair || matches!(q.kind, Safety | Liveness))
            .map(|q| {
                let expected = if self.fair { true } else { q.plain };
                (q.text, q.kind, expected)
            })
            .collect()
    }
}
