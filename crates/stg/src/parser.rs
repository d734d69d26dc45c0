//! Reader and writer for the `.g` (astg) STG interchange format used by
//! SIS, petrify and Workcraft.
//!
//! Supported sections: `.model`, `.inputs`, `.outputs`, `.internal`,
//! `.dummy`, `.graph`, `.marking { … }`, `.end`, plus `#` comments. In the
//! graph section a line `src dst₁ dst₂ …` adds an arc from `src` to every
//! `dstᵢ`; names with a `+`/`-` suffix (optionally `/k`) are signal
//! transitions, declared dummy names are dummy transitions, anything else
//! is an explicit place. Transition–transition arcs go through implicit
//! places, which the marking section can reference as `<src,dst>`.
//!
//! The dialect is specified in full in `docs/g-format.md` at the
//! repository root.

use std::collections::HashMap;
use std::fmt;

use stgcheck_petri::PlaceId;

use crate::signal::SignalKind;
use crate::stg::{split_label, Stg, StgBuilder, StgError};

/// Errors from `.g` parsing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseGError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseGError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ".g parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseGError {}

fn err(line: usize, message: impl Into<String>) -> ParseGError {
    ParseGError { line, message: message.into() }
}

/// Parses a `.g` file into an [`Stg`].
///
/// # Errors
///
/// Returns [`ParseGError`] with a line number on malformed input.
///
/// # Examples
///
/// ```
/// let src = "\
/// .model hs
/// .inputs r
/// .outputs a
/// .graph
/// r+ a+
/// a+ r-
/// r- a-
/// a- r+
/// .marking { <a-,r+> }
/// .end
/// ";
/// let stg = stgcheck_stg::parse_g(src)?;
/// assert_eq!(stg.name(), "hs");
/// assert_eq!(stg.net().num_transitions(), 4);
/// # Ok::<(), stgcheck_stg::ParseGError>(())
/// ```
pub fn parse_g(source: &str) -> Result<Stg, ParseGError> {
    enum Section {
        Header,
        Graph,
        Done,
    }
    let mut b = StgBuilder::new("stg");
    let mut section = Section::Header;
    let mut dummies: Vec<String> = Vec::new();
    let mut marking_entries: Vec<(String, u32)> = Vec::new();
    let mut places_seen: HashMap<String, PlaceId> = HashMap::new();

    for (lineno, raw) in source.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let head = tokens.next().expect("non-empty line has a token");
        match head {
            ".model" | ".name" => {
                let name = tokens.next().ok_or_else(|| err(lineno, "missing model name"))?;
                b = rename_builder(b, name);
            }
            ".inputs" => {
                for t in tokens {
                    b.input(t);
                }
            }
            ".outputs" => {
                for t in tokens {
                    b.output(t);
                }
            }
            ".internal" => {
                for t in tokens {
                    b.internal(t);
                }
            }
            ".dummy" => {
                for t in tokens {
                    dummies.push(t.to_string());
                    b.dummy(t);
                }
            }
            ".graph" => {
                section = Section::Graph;
            }
            ".marking" => {
                let rest: String = std::iter::once("").chain(tokens).collect::<Vec<_>>().join(" ");
                parse_marking(&rest, lineno, &mut marking_entries)?;
            }
            ".end" => {
                section = Section::Done;
            }
            ".capacity" | ".slowenv" | ".level" => {
                // Recognised but irrelevant petrify extensions.
            }
            _ => match section {
                Section::Graph => {
                    let targets: Vec<&str> = tokens.collect();
                    if targets.is_empty() {
                        return Err(err(lineno, format!("arc line `{line}` has no target")));
                    }
                    for dst in targets {
                        add_arc(&mut b, &mut places_seen, &dummies, head, dst)
                            .map_err(|m| err(lineno, m))?;
                    }
                }
                Section::Header => {
                    return Err(err(lineno, format!("unexpected `{head}` before .graph")));
                }
                Section::Done => {
                    return Err(err(lineno, format!("content after .end: `{head}`")));
                }
            },
        }
    }

    // Apply the marking.
    for (name, tokens) in marking_entries {
        let canonical = canonical_place_name(&name);
        let Some(&p) = places_seen.get(&canonical) else {
            return Err(err(0, format!("marking references unknown place `{name}`")));
        };
        b.set_place_tokens(p, tokens);
    }
    b.build().map_err(|e: StgError| err(0, e.to_string()))
}

fn rename_builder(old: StgBuilder, name: &str) -> StgBuilder {
    old.with_name(name)
}

/// Normalises implicit-place references: `<a+,b-/2>` keeps its shape; the
/// builder names implicit places exactly that way.
fn canonical_place_name(name: &str) -> String {
    name.to_string()
}

fn token_is_transition(tok: &str, dummies: &[String]) -> bool {
    dummies.iter().any(|d| d == tok) || split_label(tok).is_ok()
}

fn add_arc(
    b: &mut StgBuilder,
    places: &mut HashMap<String, PlaceId>,
    dummies: &[String],
    src: &str,
    dst: &str,
) -> Result<(), String> {
    let src_is_t = token_is_transition(src, dummies);
    let dst_is_t = token_is_transition(dst, dummies);
    // A repeated arc is an input error here; `PetriNet` treats it as a
    // programming error and panics.
    let duplicate = || Err(format!("duplicate arc `{src}` -> `{dst}`"));
    match (src_is_t, dst_is_t) {
        (true, true) => {
            let pname = format!("<{src},{dst}>");
            if let Some(p) = b.place_by_name(&pname) {
                let (tf, tt) = (b.trans(src), b.trans(dst));
                if b.net().has_arc_tp(tf, p) || b.net().has_arc_pt(p, tt) {
                    return duplicate();
                }
            }
            b.arc(src, dst);
            let p = b.place_by_name(&pname).expect("builder just created the implicit place");
            places.insert(pname, p);
            Ok(())
        }
        (true, false) => {
            let p = *places.entry(dst.to_string()).or_insert_with(|| b.place(dst, 0));
            let t = b.trans(src);
            if b.net().has_arc_tp(t, p) {
                return duplicate();
            }
            b.tp(src, p);
            Ok(())
        }
        (false, true) => {
            let p = *places.entry(src.to_string()).or_insert_with(|| b.place(src, 0));
            let t = b.trans(dst);
            if b.net().has_arc_pt(p, t) {
                return duplicate();
            }
            b.pt(p, dst);
            Ok(())
        }
        (false, false) => Err(format!("arc between two places `{src}` -> `{dst}`")),
    }
}

fn parse_marking(
    body: &str,
    lineno: usize,
    out: &mut Vec<(String, u32)>,
) -> Result<(), ParseGError> {
    let inner = body.trim();
    let inner = inner
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| err(lineno, "marking must be wrapped in { }"))?;
    // Tokens are place names, `<t,t>` implicit names, optionally `=k`.
    let chars = inner.chars();
    let mut current = String::new();
    let mut depth = 0u32;
    let flush = |s: &mut String, out: &mut Vec<(String, u32)>| -> Result<(), ParseGError> {
        if s.is_empty() {
            return Ok(());
        }
        let (name, count) = match s.split_once('=') {
            None => (s.clone(), 1u32),
            Some((n, k)) => {
                let k: u32 =
                    k.parse().map_err(|_| err(lineno, format!("bad token count in `{s}`")))?;
                (n.to_string(), k)
            }
        };
        out.push((name, count));
        s.clear();
        Ok(())
    };
    for c in chars {
        match c {
            '<' => {
                depth += 1;
                current.push(c);
            }
            '>' => {
                depth = depth.saturating_sub(1);
                current.push(c);
            }
            c if c.is_whitespace() && depth == 0 => flush(&mut current, out)?,
            // Inside <...> commas are part of the name; spaces are not
            // expected but tolerated.
            c if c.is_whitespace() => {}
            _ => current.push(c),
        }
    }
    flush(&mut current, out)?;
    Ok(())
}

/// Serialises an [`Stg`] to `.g` format.
///
/// Implicit places (exactly one producer, one consumer, name of the form
/// `<…>`) are emitted as direct transition–transition arcs; everything
/// else appears by place name.
pub fn write_g(stg: &Stg) -> String {
    use std::fmt::Write as _;
    let net = stg.net();
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", stg.name());
    for (kind, directive) in [
        (SignalKind::Input, ".inputs"),
        (SignalKind::Output, ".outputs"),
        (SignalKind::Internal, ".internal"),
    ] {
        let names: Vec<&str> = stg
            .signals()
            .filter(|&s| stg.signal_kind(s) == kind)
            .map(|s| stg.signal_name(s))
            .collect();
        if !names.is_empty() {
            let _ = writeln!(out, "{directive} {}", names.join(" "));
        }
    }
    let dummies: Vec<&str> =
        net.transitions().filter(|&t| stg.is_dummy(t)).map(|t| net.trans_name(t)).collect();
    if !dummies.is_empty() {
        let _ = writeln!(out, ".dummy {}", dummies.join(" "));
    }
    let _ = writeln!(out, ".graph");
    let implicit = |p| -> bool {
        net.place_preset(p).len() == 1
            && net.place_postset(p).len() == 1
            && net.place_name(p).starts_with('<')
    };
    for p in net.places() {
        if implicit(p) {
            let src = net.place_preset(p)[0];
            let dst = net.place_postset(p)[0];
            let _ = writeln!(out, "{} {}", stg.label_string(src), stg.label_string(dst));
        } else {
            for &t in net.place_preset(p) {
                let _ = writeln!(out, "{} {}", stg.label_string(t), net.place_name(p));
            }
            for &t in net.place_postset(p) {
                let _ = writeln!(out, "{} {}", net.place_name(p), stg.label_string(t));
            }
        }
    }
    let mut marks: Vec<String> = Vec::new();
    for p in net.places() {
        let k = net.initial_tokens(p);
        if k == 0 {
            continue;
        }
        let name = net.place_name(p).to_string();
        if k == 1 {
            marks.push(name);
        } else {
            marks.push(format!("{name}={k}"));
        }
    }
    let _ = writeln!(out, ".marking {{ {} }}", marks.join(" "));
    let _ = writeln!(out, ".end");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state_graph::{build_state_graph, SgOptions};

    const HANDSHAKE: &str = "\
# A four-phase handshake.
.model hs
.inputs r
.outputs a
.graph
r+ a+
a+ r-
r- a-
a- r+
.marking { <a-,r+> }
.end
";

    #[test]
    fn parses_handshake() {
        let stg = parse_g(HANDSHAKE).unwrap();
        assert_eq!(stg.name(), "hs");
        assert_eq!(stg.num_signals(), 2);
        assert_eq!(stg.net().num_transitions(), 4);
        assert_eq!(stg.net().num_places(), 4);
        let m0 = stg.net().initial_marking();
        assert_eq!(m0.marked_places().count(), 1);
        let sg = build_state_graph(&stg, SgOptions::default()).unwrap();
        assert_eq!(sg.len(), 4);
    }

    #[test]
    fn parses_explicit_places_and_choice() {
        let src = "\
.model choice
.inputs a b
.graph
p0 a+
p0 b+
a+ p1
b+ p1
p1 c
.dummy c
.marking { p0 }
.end
";
        // .dummy appears after use of `c` in .graph: reorder it first.
        let src = src.replace(".graph", ".dummy c\n.graph");
        let src = src.replace("p1 c\n.dummy c", "p1 c");
        let stg = parse_g(&src).unwrap();
        assert_eq!(stg.net().num_places(), 2);
        assert_eq!(stg.net().num_transitions(), 3);
        let c = stg.net().trans_by_name("c").unwrap();
        assert!(stg.is_dummy(c));
    }

    #[test]
    fn parses_weighted_marking() {
        let src = "\
.model m
.inputs a
.graph
p a+
a+ p2
p2 a-
a- p
.marking { p=2 }
.end
";
        let stg = parse_g(src).unwrap();
        let p = stg.net().place_by_name("p").unwrap();
        assert_eq!(stg.net().initial_tokens(p), 2);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_g(".graph\nx+ y+\n.end\n").is_err()); // undeclared signals
        assert!(parse_g(".model m\n.inputs a\n.graph\na+\n.end\n").is_err()); // arc w/o target
        assert!(parse_g(".model m\n.inputs a\n.graph\np q\n.end\n").is_err()); // place-place arc
        assert!(parse_g(".model m\n.inputs a\n.graph\na+ a-\n.marking missing\n.end\n").is_err());
        let e = parse_g("junk\n").unwrap_err();
        assert!(e.to_string().contains("line 1"));
        // An undeclared label next to a dummy spelled like its
        // placeholder transition, in either order.
        for graph in [
            ".dummy <invalid:x+>\n.graph\n<invalid:x+> x+\n",
            ".graph\nx+ p\n.dummy <invalid:x+>\n",
        ] {
            assert!(parse_g(&format!(".model m\n{graph}.end\n")).is_err(), "{graph:?}");
        }
    }

    /// A repeated arc, on one line or across two, is a parse error at the
    /// line that repeats it — for transition→transition,
    /// transition→place and place→transition arcs alike.
    #[test]
    fn rejects_repeated_arcs_with_their_line() {
        let head = ".model m\n.inputs a b\n.graph\n";
        for (graph, line, arc) in [
            ("a+ b+ b+\n", 4, "`a+` -> `b+`"),
            ("a+ b+\nb+ a-\na+ b+\n", 6, "`a+` -> `b+`"),
            ("a+ p p\n", 4, "`a+` -> `p`"),
            ("a+ p\np b+\na+ p\n", 6, "`a+` -> `p`"),
            ("p a+ a+\n", 4, "`p` -> `a+`"),
            ("p a+\na+ p\np b+ a+\n", 6, "`p` -> `a+`"),
            // An explicit place spelled like the implicit one.
            ("a+ <a+,b+>\na+ b+\n", 5, "`a+` -> `b+`"),
        ] {
            let src = format!("{head}{graph}.end\n");
            let e = parse_g(&src).unwrap_err();
            assert_eq!(e.line, line, "{graph:?}: {e}");
            assert!(e.message.contains(&format!("duplicate arc {arc}")), "{graph:?}: {e}");
        }
    }

    #[test]
    fn round_trip_preserves_structure() {
        let stg = parse_g(HANDSHAKE).unwrap();
        let text = write_g(&stg);
        let stg2 = parse_g(&text).unwrap();
        assert_eq!(stg2.num_signals(), stg.num_signals());
        assert_eq!(stg2.net().num_places(), stg.net().num_places());
        assert_eq!(stg2.net().num_transitions(), stg.net().num_transitions());
        // Same state graph.
        let sg1 = build_state_graph(&stg, SgOptions::default()).unwrap();
        let sg2 = build_state_graph(&stg2, SgOptions::default()).unwrap();
        assert_eq!(sg1.len(), sg2.len());
        assert_eq!(sg1.num_edges(), sg2.num_edges());
    }

    #[test]
    fn writer_emits_all_sections() {
        let stg = parse_g(HANDSHAKE).unwrap();
        let text = write_g(&stg);
        assert!(text.contains(".model hs"));
        assert!(text.contains(".inputs r"));
        assert!(text.contains(".outputs a"));
        assert!(text.contains(".graph"));
        assert!(text.contains(".marking {"));
        assert!(text.trim_end().ends_with(".end"));
    }

    #[test]
    fn marking_with_implicit_place_names() {
        let src = "\
.model m
.inputs a b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
";
        let stg = parse_g(src).unwrap();
        let sg = build_state_graph(&stg, SgOptions::default()).unwrap();
        assert_eq!(sg.len(), 4);
    }
}
