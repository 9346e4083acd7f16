//! Property tests for the `.bench` reader and writer: no input makes
//! `parse_bench` panic, one injected defect gets the error that names
//! it, and writing back what it read is a fixpoint from the second pass
//! on (the first pass may reorder flip-flops and rename the header
//! comment).

use std::collections::HashSet;

use proptest::prelude::*;

use dft_netlist::generators::{benchmark_suite, random_logic};
use dft_netlist::{parse_bench, write_bench, GateId, GateKind, Netlist, NetlistError};

/// `write_bench` of what `parse_bench` reads from `text`.
fn reprint(name: &str, text: &str) -> String {
    write_bench(&parse_bench(name, text).expect("written .bench text parses"))
}

/// `len` arbitrary bytes from `seed` (xorshift64), about half of them
/// drawn from the `.bench` token alphabet so lines get past the first
/// syntax check often enough to reach the deeper paths.
fn arbitrary_bytes(seed: u64, len: usize) -> Vec<u8> {
    const ALPHABET: &[u8] = b"()=,# \nINPUTOUTPUTANDNORXDFFMUXCONST01abc";
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pick = (x >> 8) as usize;
            if x & 1 == 0 {
                pick as u8
            } else {
                ALPHABET[pick % ALPHABET.len()]
            }
        })
        .collect()
}

/// `text` with the line that defines gate `g` of `nl` rewritten to
/// read the nets `fanins`.
fn redefine(nl: &Netlist, text: &str, g: GateId, fanins: &[&str]) -> String {
    let gate = nl.gate(g);
    let head = format!("{} = ", gate.name);
    let line = format!("{head}{}({})", gate.kind.bench_name(), fanins.join(", "));
    assert!(
        text.lines().any(|l| l.starts_with(&head)),
        "no line defines {}",
        gate.name
    );
    text.lines()
        .map(|l| if l.starts_with(&head) { &line } else { l })
        .fold(String::new(), |out, l| out + l + "\n")
}

/// The nets gate `g` reads, by name.
fn fanin_names(nl: &Netlist, g: GateId) -> Vec<&str> {
    nl.gate(g)
        .fanins
        .iter()
        .map(|&f| nl.gate(f).name.as_str())
        .collect()
}

/// The gates reachable from `from` along `next`, `from` included.
fn closure(from: GateId, next: impl Fn(GateId) -> Vec<GateId>) -> HashSet<GateId> {
    let mut seen = HashSet::from([from]);
    let mut stack = vec![from];
    while let Some(g) = stack.pop() {
        for f in next(g) {
            if seen.insert(f) {
                stack.push(f);
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One defect injected into a generated netlist's text gets the
    /// error naming it: a net defined twice, a gate with the wrong fanin
    /// count, a read of a net nothing defines, or a gate rewired onto a
    /// net of its own fanout, whose loop error names a net on the new
    /// cycle.
    #[test]
    fn an_injected_defect_gets_the_error_naming_it(
        seed in 0u64..1000,
        gates in 5usize..80,
        pick in 0usize..usize::MAX,
        defect in 0usize..4,
    ) {
        let nl = random_logic(6, gates, seed);
        let text = write_bench(&nl);
        let logic: Vec<GateId> = nl
            .iter()
            .filter(|(_, g)| g.kind.is_logic())
            .map(|(id, _)| id)
            .collect();
        let logic_fanouts = |x: GateId| -> Vec<GateId> {
            nl.gate(x)
                .fanouts
                .iter()
                .copied()
                .filter(|&f| nl.gate(f).kind.is_logic())
                .collect()
        };
        // The gate to damage; for a loop, one that drives another gate.
        let drivers: Vec<GateId> = logic
            .iter()
            .copied()
            .filter(|&x| !logic_fanouts(x).is_empty())
            .collect();
        let candidates = if defect == 3 { &drivers } else { &logic };
        prop_assert!(!candidates.is_empty(), "no gate drives another");
        let g = candidates[pick % candidates.len()];
        let name = nl.gate(g).name.clone();
        let mut fanins = fanin_names(&nl, g);
        match defect {
            0 => {
                // A second definition of any net, inputs included.
                let nets: Vec<&str> = nl
                    .iter()
                    .filter(|(_, g)| g.kind != GateKind::Output)
                    .map(|(_, g)| g.name.as_str())
                    .collect();
                let twice = nets[pick % nets.len()];
                let bad = format!("{text}{twice} = NOT({})\n", nl.gate(nl.inputs()[0]).name);
                prop_assert_eq!(
                    parse_bench("bad", &bad).err(),
                    Some(NetlistError::DuplicateName(twice.to_owned()))
                );
            }
            1 => {
                // One fanin too many for a single-input gate; none for
                // a variadic one.
                let kind = nl.gate(g).kind;
                let expected = kind.arity().unwrap_or(1);
                if kind.arity().is_some() {
                    fanins.push(fanins[0]);
                } else {
                    fanins.clear();
                }
                let got = fanins.len();
                prop_assert_eq!(
                    parse_bench("bad", &redefine(&nl, &text, g, &fanins)).err(),
                    Some(NetlistError::BadArity {
                        net: name.clone(),
                        kind: kind.bench_name(),
                        expected,
                        got,
                    })
                );
            }
            2 => {
                let pin = pick / candidates.len() % fanins.len();
                fanins[pin] = "undefined_net";
                prop_assert_eq!(
                    parse_bench("bad", &redefine(&nl, &text, g, &fanins)).err(),
                    Some(NetlistError::UndefinedNet("undefined_net".to_owned()))
                );
            }
            _ => {
                // Rewire a pin of `g` onto a gate `h` it drives: every
                // net on a path from `g` to `h` closes a cycle.
                let mut downstream: Vec<GateId> =
                    closure(g, logic_fanouts).into_iter().filter(|&h| h != g).collect();
                downstream.sort();
                let h = downstream[pick / candidates.len() % downstream.len()];
                let on_cycle: HashSet<String> = closure(g, logic_fanouts)
                    .intersection(&closure(h, |x| nl.gate(x).fanins.clone()))
                    .map(|&n| nl.gate(n).name.clone())
                    .collect();
                let pin = pick % fanins.len();
                fanins[pin] = nl.gate(h).name.as_str();
                match parse_bench("bad", &redefine(&nl, &text, g, &fanins)) {
                    Err(NetlistError::CombinationalLoop(n)) => prop_assert!(
                        on_cycle.contains(&n),
                        "{} is not on the cycle through {} and {}", n, name, nl.gate(h).name
                    ),
                    other => prop_assert!(false, "rewired {}: {:?}", name, other.err()),
                }
            }
        }
    }

    /// Arbitrary bytes get a typed error (or a netlist), never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(seed in 0u64..u64::MAX, len in 0usize..256) {
        let _ = parse_bench("fuzz", &String::from_utf8_lossy(&arbitrary_bytes(seed, len)));
    }

    /// Every single-byte mutation of a well-formed netlist gets a typed
    /// error (or a netlist), never a panic.
    #[test]
    fn mutated_bench_text_never_panics(
        seed in 0u64..1000,
        gates in 5usize..60,
        offset in 0usize..usize::MAX,
        byte in 0u8..=255,
    ) {
        let mut bytes = write_bench(&random_logic(6, gates, seed)).into_bytes();
        let at = offset % bytes.len();
        bytes[at] = byte;
        let _ = parse_bench("fuzz", &String::from_utf8_lossy(&bytes));
    }

    /// `write_bench ∘ parse_bench` is idempotent after the first pass.
    #[test]
    fn reprint_is_a_fixpoint_after_the_first_pass(seed in 0u64..1000, gates in 5usize..120) {
        let first = reprint("rt", &write_bench(&random_logic(8, gates, seed)));
        prop_assert_eq!(reprint("rt", &first), first);
    }
}

/// The same fixpoint on every circuit of the benchmark suite,
/// sequential ones included.
#[test]
fn reprint_is_a_fixpoint_on_the_benchmark_suite() {
    for circuit in benchmark_suite() {
        let first = reprint(circuit.name, &write_bench(&circuit.netlist));
        assert_eq!(
            reprint(circuit.name, &first),
            first,
            "{} is not a fixpoint",
            circuit.name
        );
    }
}
