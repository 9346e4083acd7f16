//! ISCAS-89 style `.bench` reader and writer.
//!
//! The `.bench` format is the lingua franca of academic test generation:
//!
//! ```text
//! # comment
//! INPUT(G1)
//! OUTPUT(G17)
//! G10 = NAND(G1, G3)
//! G17 = NOT(G10)
//! G8 = DFF(G17)
//! ```
//!
//! We additionally accept `BUF`/`BUFF`, `MUX`, `CONST0`, `CONST1`.

use std::collections::{HashMap, HashSet};
use std::path::Path;

use crate::{GateId, GateKind, Netlist, NetlistError};

/// Reads and parses a `.bench` netlist from `path`. The design name is
/// the file stem (`designs/mac4.bench` → `mac4`).
///
/// # Errors
///
/// Returns [`NetlistError::Io`] (carrying the path and the rendered
/// cause) when the file cannot be opened or read, or any
/// [`parse_bench`] error for malformed content.
pub fn load_bench(path: impl AsRef<Path>) -> Result<Netlist, NetlistError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| NetlistError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("netlist");
    parse_bench(name, &text)
}

/// Parses a netlist from `.bench` text.
///
/// Gate definitions may appear in any order; forward references are
/// resolved in a second pass.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed lines,
/// [`NetlistError::UnknownGateType`] for unsupported gate types,
/// [`NetlistError::DuplicateName`] for a net defined twice,
/// [`NetlistError::BadArity`] for a gate with the wrong fanin count,
/// [`NetlistError::UndefinedNet`] if a referenced net is never defined,
/// and [`NetlistError::CombinationalLoop`] if gates feed each other
/// without a flip-flop in between.
pub fn parse_bench(name: &str, text: &str) -> Result<Netlist, NetlistError> {
    enum Def {
        Input,
        Gate(GateKind, Vec<String>),
    }
    let mut defs: Vec<(String, Def)> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lno = lineno + 1;
        let parse_call = |s: &str| -> Result<(String, Vec<String>), NetlistError> {
            let open = s.find('(').ok_or(NetlistError::Parse {
                line: lno,
                message: "missing `(`".into(),
            })?;
            let close = s.rfind(')').ok_or(NetlistError::Parse {
                line: lno,
                message: "missing `)`".into(),
            })?;
            if close < open {
                return Err(NetlistError::Parse {
                    line: lno,
                    message: "`)` before `(`".into(),
                });
            }
            let func = s[..open].trim().to_uppercase();
            let args = s[open + 1..close]
                .split(',')
                .map(|a| a.trim().to_owned())
                .filter(|a| !a.is_empty())
                .collect();
            Ok((func, args))
        };

        if let Some(rest) = line
            .strip_prefix("INPUT")
            .filter(|r| r.trim_start().starts_with('('))
        {
            let (_, args) = parse_call(&format!("INPUT{rest}"))?;
            for a in args {
                defs.push((a, Def::Input));
            }
        } else if let Some(rest) = line
            .strip_prefix("OUTPUT")
            .filter(|r| r.trim_start().starts_with('('))
        {
            let (_, args) = parse_call(&format!("OUTPUT{rest}"))?;
            outputs.extend(args);
        } else if let Some(eq) = line.find('=') {
            let lhs = line[..eq].trim().to_owned();
            let (func, args) = parse_call(line[eq + 1..].trim())?;
            let kind = match func.as_str() {
                "AND" => GateKind::And,
                "NAND" => GateKind::Nand,
                "OR" => GateKind::Or,
                "NOR" => GateKind::Nor,
                "XOR" => GateKind::Xor,
                "XNOR" => GateKind::Xnor,
                "NOT" | "INV" => GateKind::Not,
                "BUF" | "BUFF" => GateKind::Buf,
                "MUX" => GateKind::Mux2,
                "DFF" => GateKind::Dff,
                "CONST0" => GateKind::Const0,
                "CONST1" => GateKind::Const1,
                other => {
                    return Err(NetlistError::UnknownGateType {
                        line: lno,
                        name: other.to_owned(),
                    })
                }
            };
            defs.push((lhs, Def::Gate(kind, args)));
        } else {
            return Err(NetlistError::Parse {
                line: lno,
                message: format!("unrecognized line `{line}`"),
            });
        }
    }

    // Inputs first, then DFFs: a Q net is a source, so other gates may
    // reference it before the gate feeding D exists. D is wired once every
    // gate is placed. Combinational gates are placed by iterating to a
    // fixpoint, which resolves forward references without recursion and
    // keeps ids topological where possible.
    let mut nl = Netlist::new(name);
    let mut placed: HashMap<String, GateId> = HashMap::new();
    for (net, def) in &defs {
        if let Def::Input = def {
            if placed.insert(net.clone(), nl.add_input(net)).is_some() {
                return Err(NetlistError::DuplicateName(net.clone()));
            }
        }
    }
    let mut dff_fixups: Vec<(GateId, String)> = Vec::new();
    for (net, def) in &defs {
        if let Def::Gate(GateKind::Dff, args) = def {
            if args.len() != 1 {
                return Err(NetlistError::BadArity {
                    kind: "DFF",
                    expected: 1,
                    got: args.len(),
                });
            }
            let q = nl.add_dff_unwired(net);
            if placed.insert(net.clone(), q).is_some() {
                return Err(NetlistError::DuplicateName(net.clone()));
            }
            dff_fixups.push((q, args[0].clone()));
        }
    }
    let mut remaining: Vec<(String, GateKind, Vec<String>)> = defs
        .into_iter()
        .filter_map(|(net, def)| match def {
            Def::Gate(k, args) if k != GateKind::Dff => Some((net, k, args)),
            _ => None,
        })
        .collect();
    while !remaining.is_empty() {
        let before = remaining.len();
        let mut waiting = Vec::with_capacity(before);
        for (net, kind, args) in remaining {
            match args.iter().map(|a| placed.get(a).copied()).collect() {
                Some(fanins) => {
                    let id = nl.try_add_gate(kind, fanins, &net)?;
                    if let Some(first) = placed.insert(net, id) {
                        return Err(NetlistError::DuplicateName(nl.gate(first).name.clone()));
                    }
                }
                None => waiting.push((net, kind, args)),
            }
        }
        if waiting.len() == before {
            return Err(unplaceable(&waiting, &placed));
        }
        remaining = waiting;
    }
    for (q, dname) in dff_fixups {
        let d = *placed
            .get(&dname)
            .ok_or_else(|| NetlistError::UndefinedNet(dname.clone()))?;
        nl.rewire_fanin(q, 0, d);
    }
    for o in outputs {
        let src = *placed
            .get(&o)
            .ok_or_else(|| NetlistError::UndefinedNet(o.clone()))?;
        nl.add_output(src, &format!("{o}_po"));
    }
    Ok(nl)
}

/// Names why no waiting gate could be placed: a fanin that nothing
/// defines, or else a gate on the combinational cycle every waiting
/// gate leads into.
fn unplaceable(
    waiting: &[(String, GateKind, Vec<String>)],
    placed: &HashMap<String, GateId>,
) -> NetlistError {
    let fanins: HashMap<&str, &[String]> = waiting
        .iter()
        .map(|(net, _, args)| (net.as_str(), args.as_slice()))
        .collect();
    let unplaced = |net: &str| fanins[net].iter().filter(|a| !placed.contains_key(*a));
    if let Some(missing) = waiting
        .iter()
        .flat_map(|(net, _, _)| unplaced(net))
        .find(|a| !fanins.contains_key(a.as_str()))
    {
        return NetlistError::UndefinedNet(missing.clone());
    }
    // Every unplaced fanin is itself waiting, so following them from any
    // gate must revisit one, and the first revisited gate is on a cycle.
    let mut seen = HashSet::new();
    let mut net = waiting[0].0.as_str();
    while seen.insert(net) {
        net = unplaced(net)
            .next()
            .expect("a waiting gate has an unplaced fanin");
    }
    NetlistError::CombinationalLoop(net.to_owned())
}

/// Serializes a netlist to `.bench` text.
///
/// Output markers are written as `OUTPUT(<driver net>)`; their own marker
/// names are not preserved (matching common `.bench` practice).
pub fn write_bench(nl: &Netlist) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", nl.name()));
    for &pi in nl.inputs() {
        out.push_str(&format!("INPUT({})\n", nl.gate(pi).name));
    }
    for &po in nl.outputs() {
        let src = nl.gate(po).fanins[0];
        out.push_str(&format!("OUTPUT({})\n", nl.gate(src).name));
    }
    for (_, g) in nl.iter() {
        match g.kind {
            GateKind::Input | GateKind::Output => continue,
            GateKind::Const0 | GateKind::Const1 => {
                out.push_str(&format!("{} = {}()\n", g.name, g.kind.bench_name()));
            }
            _ => {
                let args: Vec<&str> = g.fanins.iter().map(|&f| nl.gate(f).name.as_str()).collect();
                out.push_str(&format!(
                    "{} = {}({})\n",
                    g.name,
                    g.kind.bench_name(),
                    args.join(", ")
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const C17: &str = r"
# c17 benchmark
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";

    #[test]
    fn parse_c17() {
        let nl = parse_bench("c17", C17).unwrap();
        assert_eq!(nl.num_inputs(), 5);
        assert_eq!(nl.num_outputs(), 2);
        // 5 PI + 6 NAND + 2 PO markers = 13
        assert_eq!(nl.num_gates(), 13);
        nl.validate().unwrap();
    }

    #[test]
    fn parse_forward_reference() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(x)\nx = BUF(a)\n";
        let nl = parse_bench("fwd", text).unwrap();
        assert!(nl.find("x").is_some());
        assert!(nl.find("y").is_some());
    }

    #[test]
    fn parse_sequential_with_dff_loop() {
        // Self-feeding toggle: q = DFF(nq); nq = NOT(q)
        let text = "INPUT(en)\nOUTPUT(q)\nq = DFF(nq)\nnq = NOT(q)\n";
        let nl = parse_bench("tog", text).unwrap();
        assert_eq!(nl.num_dffs(), 1);
        let q = nl.find("q").unwrap();
        let nq = nl.find("nq").unwrap();
        assert_eq!(nl.gate(q).fanins, vec![nq]);
        nl.validate().unwrap();
    }

    #[test]
    fn round_trip_preserves_structure() {
        let nl = parse_bench("c17", C17).unwrap();
        let text = write_bench(&nl);
        let nl2 = parse_bench("c17rt", &text).unwrap();
        assert_eq!(nl2.num_inputs(), nl.num_inputs());
        assert_eq!(nl2.num_outputs(), nl.num_outputs());
        assert_eq!(nl2.num_gates(), nl.num_gates());
    }

    #[test]
    fn undefined_net_is_reported() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
        let err = parse_bench("bad", text).unwrap_err();
        assert!(matches!(err, NetlistError::UndefinedNet(n) if n == "ghost"));
    }

    #[test]
    fn wrong_fanin_count_is_bad_arity() {
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n";
        let err = parse_bench("bad", text).unwrap_err();
        assert!(matches!(
            err,
            NetlistError::BadArity {
                kind: "NOT",
                expected: 1,
                got: 2
            }
        ));
    }

    #[test]
    fn combinational_cycle_is_a_loop() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = BUF(y)\n";
        let err = parse_bench("bad", text).unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalLoop(n) if n == "y"));
    }

    #[test]
    fn second_definition_is_a_duplicate() {
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ny = OR(a, b)\n";
        let err = parse_bench("bad", text).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateName("y".into()));
    }

    #[test]
    fn load_bench_reads_files_and_reports_the_path_on_failure() {
        let dir = std::env::temp_dir().join(format!("aidft-nl-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c17.bench");
        std::fs::write(&path, C17).unwrap();
        let nl = load_bench(&path).unwrap();
        assert_eq!(nl.name(), "c17");
        assert_eq!(nl.num_inputs(), 5);

        let missing = dir.join("ghost.bench");
        let err = load_bench(&missing).unwrap_err();
        match &err {
            NetlistError::Io { path, message } => {
                assert!(path.contains("ghost.bench"), "{path}");
                assert!(!message.is_empty());
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        assert!(err.to_string().contains("ghost.bench"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_gate_type_is_reported() {
        let text = "INPUT(a)\ny = FROB(a)\n";
        let err = parse_bench("bad", text).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownGateType { .. }));
    }

    #[test]
    fn close_before_open_is_a_parse_error() {
        let err = parse_bench("t", "INPUT(a)\ny = )(a").unwrap_err();
        assert!(
            matches!(&err, NetlistError::Parse { line: 2, message } if message.contains("before")),
            "{err}"
        );
        assert!(matches!(
            parse_bench("t", "y = )(a"),
            Err(NetlistError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# hello\n\nINPUT(a)  # trailing\nOUTPUT(a)\n";
        let nl = parse_bench("c", text).unwrap();
        assert_eq!(nl.num_inputs(), 1);
    }
}
