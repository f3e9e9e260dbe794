//! A second family: one distinguished server, `n` identical clients.
//!
//! Shows the framework on a mixed alphabet (plain server atoms + indexed
//! client atoms) and that the soundness of the small base case depends on
//! the protocol: the unordered service discipline here admits a 2-client
//! base, where the token ring (ordered service) needs 3 processes.
//!
//! Run with `cargo run --release --example client_server`.

use icstar::{FamilyVerifier, IndexRelation, IndexedChecker};
use icstar_nets::{client_server, server_properties};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== client-server instances ==");
    for n in 1..=6u32 {
        let m = client_server(n);
        println!(
            "  {n} clients: {:4} states {:5} transitions",
            m.kripke().num_states(),
            m.kripke().num_transitions()
        );
    }

    println!("\n== specification on the 2-client base ==");
    let base = client_server(2);
    let mut chk = IndexedChecker::new(&base);
    for f in server_properties() {
        println!(
            "  {:18} {:55} {}",
            f.name,
            f.description,
            chk.holds(&f.formula)?
        );
    }

    println!("\n== transfer from 2 clients to 6 ==");
    let mut verifier = FamilyVerifier::new(&base);
    for f in server_properties() {
        verifier.add_formula(f.name, f.formula.clone())?;
    }
    let target = client_server(6);
    let inrel = IndexRelation::two_vs_many(&(1..=6).collect::<Vec<_>>());
    let verdicts = verifier.transfer_to(&target, &inrel)?;
    for v in &verdicts {
        println!("  {:18} transfers as {}", v.name, v.holds);
    }

    // Cross-validate directly on the target.
    let mut direct = IndexedChecker::new(&target);
    for (v, f) in verdicts.iter().zip(server_properties()) {
        assert_eq!(v.holds, direct.holds(&f.formula)?, "{}", f.name);
    }
    println!("  (all verdicts cross-validated on the 6-client instance)");

    println!(
        "\nnote: 'srv-no-starvation' fails by design — without fairness the\n\
         server may ignore a request forever; the verdict transfers faithfully."
    );

    println!("\n== rescuing no-starvation with fair CTL ==");
    // Constrain paths to those where client 1 is served infinitely often
    // or stops requesting — the classic scheduler fairness assumption.
    use icstar::icstar_kripke::bits::BitSet;
    use icstar::icstar_kripke::Atom;
    use icstar::icstar_mc::fair::{FairReq, TransFairness};
    use icstar::{parse_state, Checker};
    let m = client_server(3);
    let k = m.kripke();
    let srv1 = Atom::indexed("srv", 1);
    let req1 = Atom::indexed("req", 1);
    let fair_set = BitSet::from_iter_with_capacity(
        k.num_states(),
        k.states()
            .filter(|&s| !k.satisfies_atom(s, &req1) || k.satisfies_atom(s, &srv1))
            .map(|s| s.idx()),
    );
    let fair = TransFairness::new([FairReq::new(fair_set, [])]);
    let fair_af = Checker::fair(k, &fair).sat(&parse_state("AF srv[1]")?)?;
    let guaranteed = k
        .states()
        .filter(|&s| k.satisfies_atom(s, &req1))
        .all(|s| fair_af.contains(s.idx()));
    println!(
        "  under 'client 1 not ignored forever': AF srv[1] from every requesting state: {guaranteed}"
    );
    Ok(())
}
