//! March-test algorithms and the BIST run engine.

use crate::SramModel;

/// The memory interface a March engine drives: anything addressable
/// bit-wise. Implemented by [`SramModel`] and by repaired views layered
/// on top of it (spare rows/columns remap addresses before they reach
/// the underlying array).
pub trait MemoryModel {
    /// Memory size in bits.
    fn size(&self) -> usize;
    /// Reads the bit at `addr`.
    fn read(&self, addr: usize) -> bool;
    /// Writes the bit at `addr`.
    fn write(&mut self, addr: usize, value: bool);
}

impl MemoryModel for SramModel {
    fn size(&self) -> usize {
        SramModel::size(self)
    }
    fn read(&self, addr: usize) -> bool {
        SramModel::read(self, addr)
    }
    fn write(&mut self, addr: usize, value: bool) {
        SramModel::write(self, addr, value)
    }
}

/// A single March operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarchOp {
    /// Read, expecting 0.
    R0,
    /// Read, expecting 1.
    R1,
    /// Write 0.
    W0,
    /// Write 1.
    W1,
}

/// Address sweep direction of a March element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarchOrder {
    /// Ascending addresses (⇑).
    Up,
    /// Descending addresses (⇓).
    Down,
    /// Direction irrelevant (⇕) — run ascending.
    Any,
}

/// One March element: an ordered op sequence applied per address in the
/// given sweep order.
#[derive(Debug, Clone)]
pub struct MarchElement {
    /// Sweep direction.
    pub order: MarchOrder,
    /// Operations applied at each address before moving on.
    pub ops: Vec<MarchOp>,
}

/// A complete March algorithm.
#[derive(Debug, Clone)]
pub struct MarchAlgorithm {
    /// Algorithm name as used in the literature (e.g. `"March C-"`).
    pub name: &'static str,
    /// The element sequence.
    pub elements: Vec<MarchElement>,
}

impl MarchAlgorithm {
    /// Total operations per memory bit (the complexity figure, e.g. 10n
    /// for March C-).
    pub fn ops_per_bit(&self) -> usize {
        self.elements.iter().map(|e| e.ops.len()).sum()
    }
}

fn el(order: MarchOrder, ops: &[MarchOp]) -> MarchElement {
    MarchElement {
        order,
        ops: ops.to_vec(),
    }
}

/// MATS+ (5n): `⇕(w0); ⇑(r0,w1); ⇓(r1,w0)`.
pub fn mats_plus() -> MarchAlgorithm {
    use MarchOp::*;
    MarchAlgorithm {
        name: "MATS+",
        elements: vec![
            el(MarchOrder::Any, &[W0]),
            el(MarchOrder::Up, &[R0, W1]),
            el(MarchOrder::Down, &[R1, W0]),
        ],
    }
}

/// March X (6n): `⇕(w0); ⇑(r0,w1); ⇓(r1,w0); ⇕(r0)`.
pub fn march_x() -> MarchAlgorithm {
    use MarchOp::*;
    MarchAlgorithm {
        name: "March X",
        elements: vec![
            el(MarchOrder::Any, &[W0]),
            el(MarchOrder::Up, &[R0, W1]),
            el(MarchOrder::Down, &[R1, W0]),
            el(MarchOrder::Any, &[R0]),
        ],
    }
}

/// March C- (10n): `⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)`.
pub fn march_c_minus() -> MarchAlgorithm {
    use MarchOp::*;
    MarchAlgorithm {
        name: "March C-",
        elements: vec![
            el(MarchOrder::Any, &[W0]),
            el(MarchOrder::Up, &[R0, W1]),
            el(MarchOrder::Up, &[R1, W0]),
            el(MarchOrder::Down, &[R0, W1]),
            el(MarchOrder::Down, &[R1, W0]),
            el(MarchOrder::Any, &[R0]),
        ],
    }
}

/// March SS (22n): the simple static March test covering all static
/// single-cell and coupling faults.
/// `⇕(w0); ⇑(r0,r0,w0,r0,w1); ⇑(r1,r1,w1,r1,w0); ⇓(r0,r0,w0,r0,w1);
///  ⇓(r1,r1,w1,r1,w0); ⇕(r0)`.
pub fn march_ss() -> MarchAlgorithm {
    use MarchOp::*;
    MarchAlgorithm {
        name: "March SS",
        elements: vec![
            el(MarchOrder::Any, &[W0]),
            el(MarchOrder::Up, &[R0, R0, W0, R0, W1]),
            el(MarchOrder::Up, &[R1, R1, W1, R1, W0]),
            el(MarchOrder::Down, &[R0, R0, W0, R0, W1]),
            el(MarchOrder::Down, &[R1, R1, W1, R1, W0]),
            el(MarchOrder::Any, &[R0]),
        ],
    }
}

/// March A (15n): `⇕(w0); ⇑(r0,w1,w0,w1); ⇑(r1,w0,w1); ⇓(r0,w1,w0);
/// ⇓(r1,w0,w1)` — covers linked idempotent coupling faults.
pub fn march_a() -> MarchAlgorithm {
    use MarchOp::*;
    MarchAlgorithm {
        name: "March A",
        elements: vec![
            el(MarchOrder::Any, &[W0]),
            el(MarchOrder::Up, &[R0, W1, W0, W1]),
            el(MarchOrder::Up, &[R1, W0, W1]),
            el(MarchOrder::Down, &[R0, W1, W0]),
            el(MarchOrder::Down, &[R1, W0, W1, W0]),
        ],
    }
}

/// March B (17n): March A's first element extended with read-verify
/// pairs, covering TFs linked with CFs.
pub fn march_b() -> MarchAlgorithm {
    use MarchOp::*;
    MarchAlgorithm {
        name: "March B",
        elements: vec![
            el(MarchOrder::Any, &[W0]),
            el(MarchOrder::Up, &[R0, W1, R1, W0, R0, W1]),
            el(MarchOrder::Up, &[R1, W0, W1]),
            el(MarchOrder::Down, &[R0, W1, W0]),
            el(MarchOrder::Down, &[R1, W0, W1, W0]),
        ],
    }
}

/// The outcome of one March run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarchResult {
    /// Whether any read miscompared.
    pub detected: bool,
    /// First miscompare: `(element index, address, op index)`.
    pub first_fail: Option<(usize, usize, usize)>,
    /// Total memory operations performed.
    pub operations: u64,
}

/// Runs `algo` against `mem`, comparing every read with its expectation.
pub fn run_march<M: MemoryModel>(algo: &MarchAlgorithm, mem: &mut M) -> MarchResult {
    run_march_with_map(algo, mem).0
}

/// Runs `algo` against `mem` and also returns the per-address failure
/// bitmap: `map[addr]` is `true` when at least one read at `addr`
/// miscompared. This is the MBIST fail log redundancy analysis consumes
/// — addresses are the *logical* addresses the test issued, so decoder
/// (alias) faults mark the address that observed the miscompare.
pub fn run_march_with_map<M: MemoryModel>(
    algo: &MarchAlgorithm,
    mem: &mut M,
) -> (MarchResult, Vec<bool>) {
    let n = mem.size();
    let mut result = MarchResult {
        detected: false,
        first_fail: None,
        operations: 0,
    };
    let mut map = vec![false; n];
    for (ei, element) in algo.elements.iter().enumerate() {
        let addrs: Vec<usize> = match element.order {
            MarchOrder::Up | MarchOrder::Any => (0..n).collect(),
            MarchOrder::Down => (0..n).rev().collect(),
        };
        for addr in addrs {
            for (oi, op) in element.ops.iter().enumerate() {
                result.operations += 1;
                match op {
                    MarchOp::W0 => mem.write(addr, false),
                    MarchOp::W1 => mem.write(addr, true),
                    MarchOp::R0 | MarchOp::R1 => {
                        let expect = matches!(op, MarchOp::R1);
                        if mem.read(addr) != expect {
                            map[addr] = true;
                            if !result.detected {
                                result.detected = true;
                                result.first_fail = Some((ei, addr, oi));
                            }
                        }
                    }
                }
            }
        }
    }
    (result, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemFault, MemFaultKind};

    fn detect(algo: &MarchAlgorithm, size: usize, fault: MemFault) -> bool {
        let mut mem = SramModel::with_fault(size, fault);
        run_march(algo, &mut mem).detected
    }

    #[test]
    fn fault_free_memory_passes_all_algorithms() {
        for algo in [mats_plus(), march_x(), march_c_minus(), march_ss()] {
            let mut mem = SramModel::new(64);
            let r = run_march(&algo, &mut mem);
            assert!(!r.detected, "{} false alarm", algo.name);
            assert_eq!(r.operations, (algo.ops_per_bit() * 64) as u64);
        }
    }

    #[test]
    fn complexity_figures_match_literature() {
        assert_eq!(mats_plus().ops_per_bit(), 5);
        assert_eq!(march_x().ops_per_bit(), 6);
        assert_eq!(march_c_minus().ops_per_bit(), 10);
        assert_eq!(march_a().ops_per_bit(), 15);
        assert_eq!(march_b().ops_per_bit(), 17);
        assert_eq!(march_ss().ops_per_bit(), 22);
    }

    #[test]
    fn march_a_and_b_detect_base_classes() {
        for algo in [march_a(), march_b()] {
            for value in [false, true] {
                assert!(detect(
                    &algo,
                    16,
                    MemFault {
                        cell: 6,
                        kind: MemFaultKind::StuckAt { value },
                    }
                ));
            }
            for rising in [false, true] {
                assert!(detect(
                    &algo,
                    16,
                    MemFault {
                        cell: 6,
                        kind: MemFaultKind::Transition { rising },
                    }
                ));
                assert!(detect(
                    &algo,
                    16,
                    MemFault {
                        cell: 6,
                        kind: MemFaultKind::CouplingInversion {
                            aggressor: 11,
                            rising,
                        },
                    }
                ));
            }
        }
    }

    #[test]
    fn every_algorithm_detects_all_stuck_at() {
        for algo in [mats_plus(), march_x(), march_c_minus(), march_ss()] {
            for cell in [0, 7, 31] {
                for value in [false, true] {
                    assert!(
                        detect(
                            &algo,
                            32,
                            MemFault {
                                cell,
                                kind: MemFaultKind::StuckAt { value },
                            }
                        ),
                        "{} missed SAF({value}) at {cell}",
                        algo.name
                    );
                }
            }
        }
    }

    #[test]
    fn transition_faults_detected_by_marches_with_both_transitions() {
        // March C- and March SS read after both up and down transitions.
        for algo in [march_c_minus(), march_ss(), march_x()] {
            for rising in [false, true] {
                assert!(
                    detect(
                        &algo,
                        16,
                        MemFault {
                            cell: 5,
                            kind: MemFaultKind::Transition { rising },
                        }
                    ),
                    "{} missed TF(rising={rising})",
                    algo.name
                );
            }
        }
    }

    #[test]
    fn address_faults_detected_by_all() {
        for algo in [mats_plus(), march_x(), march_c_minus(), march_ss()] {
            assert!(
                detect(
                    &algo,
                    16,
                    MemFault {
                        cell: 3,
                        kind: MemFaultKind::AddressAlias { target: 9 },
                    }
                ),
                "{} missed AF",
                algo.name
            );
        }
    }

    #[test]
    fn march_c_minus_detects_coupling_inversion_both_directions() {
        for (agg, vic) in [(2usize, 9usize), (9, 2)] {
            for rising in [false, true] {
                assert!(
                    detect(
                        &march_c_minus(),
                        16,
                        MemFault {
                            cell: vic,
                            kind: MemFaultKind::CouplingInversion {
                                aggressor: agg,
                                rising,
                            },
                        }
                    ),
                    "March C- missed CFin agg={agg} vic={vic} rising={rising}"
                );
            }
        }
    }

    #[test]
    fn mats_plus_misses_some_coupling_faults() {
        // The classic limitation: MATS+ does not cover all CFs. Find at
        // least one coupling fault it misses but March C- catches.
        let mut missed_by_mats = 0;
        let mut caught_by_cminus = 0;
        for (agg, vic) in [(1usize, 5usize), (5, 1), (0, 15), (15, 0)] {
            for rising in [false, true] {
                for value in [false, true] {
                    let f = MemFault {
                        cell: vic,
                        kind: MemFaultKind::CouplingIdempotent {
                            aggressor: agg,
                            rising,
                            value,
                        },
                    };
                    let mats = detect(&mats_plus(), 16, f);
                    let cm = detect(&march_c_minus(), 16, f);
                    if !mats {
                        missed_by_mats += 1;
                        if cm {
                            caught_by_cminus += 1;
                        }
                    }
                }
            }
        }
        assert!(missed_by_mats > 0, "MATS+ unexpectedly caught every CFid");
        assert!(
            caught_by_cminus > 0,
            "March C- should catch what MATS+ misses"
        );
    }

    #[test]
    fn first_fail_reports_location() {
        let r = {
            let mut mem = SramModel::with_fault(
                8,
                MemFault {
                    cell: 4,
                    kind: MemFaultKind::StuckAt { value: true },
                },
            );
            run_march(&march_c_minus(), &mut mem)
        };
        assert!(r.detected);
        let (elem, addr, _) = r.first_fail.unwrap();
        assert_eq!(addr, 4);
        assert_eq!(elem, 1); // first reading element
    }
}
