//! Property tests for the `.bench` reader and writer: no input makes
//! `parse_bench` panic, and writing back what it read is a fixpoint
//! from the second pass on (the first pass may reorder flip-flops and
//! rename the header comment).

use proptest::prelude::*;

use dft_netlist::generators::{benchmark_suite, random_logic};
use dft_netlist::{parse_bench, write_bench};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
