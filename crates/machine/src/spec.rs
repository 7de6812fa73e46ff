//! Textual machine descriptions.
//!
//! Machines can be described in a small declarative format so experiments
//! need not be recompiled to change a unit mix:
//!
//! ```text
//! machine my2unit
//! issue 4
//! regs 16
//! unit fixed 1
//! unit float 1
//! unit fetch 1
//! route int    fixed  1
//! route float  float  1
//! route load   fetch  2
//! route store  fetch  1
//! route branch fixed  1
//! route call   fixed  1
//! route nop    fixed  1
//! ```
//!
//! `#` starts a comment. Every [`OpClass`] must be routed.

use crate::{MachineDesc, OpClass};
use std::error::Error;
use std::fmt;

/// Error from [`parse_machine_spec`], with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "machine spec error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for SpecError {}

fn err(line: usize, message: impl Into<String>) -> SpecError {
    SpecError {
        line,
        message: message.into(),
    }
}

/// Parses a machine description in the format above.
///
/// # Examples
///
/// ```
/// use parsched_machine::parse_machine_spec;
///
/// let m = parse_machine_spec(
///     "machine tiny\nissue 2\nregs 8\nunit u 2\n\
///      route int u 1\nroute float u 1\nroute load u 2\nroute store u 1\n\
///      route branch u 1\nroute call u 1\nroute nop u 1",
/// )?;
/// assert_eq!(m.num_regs(), 8);
/// # Ok::<(), parsched_machine::SpecError>(())
/// ```
///
/// # Errors
/// Returns [`SpecError`] on unknown directives, unknown unit or class
/// names, missing routes, or malformed numbers.
pub fn parse_machine_spec(src: &str) -> Result<MachineDesc, SpecError> {
    let mut name: Option<String> = None;
    let mut issue: usize = 1;
    let mut regs: u32 = 32;
    let mut units: Vec<(String, usize)> = Vec::new();
    let mut routes: Vec<(usize, OpClass, String, u32)> = Vec::new();

    for (ln0, raw) in src.lines().enumerate() {
        let ln = ln0 + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let directive = parts.next().expect("nonempty line");
        let rest: Vec<&str> = parts.collect();
        match directive {
            "machine" => {
                let [n] = rest[..] else {
                    return Err(err(ln, "machine needs a name"));
                };
                name = Some(n.to_string());
            }
            "issue" => {
                let [w] = rest[..] else {
                    return Err(err(ln, "issue needs a width"));
                };
                issue = w.parse().map_err(|_| err(ln, format!("bad width `{w}`")))?;
            }
            "regs" => {
                let [r] = rest[..] else {
                    return Err(err(ln, "regs needs a count"));
                };
                regs = r.parse().map_err(|_| err(ln, format!("bad count `{r}`")))?;
                if regs == 0 {
                    // No allocator can color anything with zero registers.
                    return Err(err(ln, "regs must be at least 1"));
                }
            }
            "unit" => {
                let [uname, count] = rest[..] else {
                    return Err(err(ln, "unit needs `name count`"));
                };
                let count: usize = count
                    .parse()
                    .map_err(|_| err(ln, format!("bad unit count `{count}`")))?;
                if count == 0 {
                    return Err(err(ln, "unit count must be positive"));
                }
                units.push((uname.to_string(), count));
            }
            "route" => {
                let [class, unit, latency] = rest[..] else {
                    return Err(err(ln, "route needs `class unit latency`"));
                };
                let class = parse_class(class).ok_or_else(|| {
                    err(
                        ln,
                        format!(
                            "unknown op class `{class}` (int/float/load/store/branch/call/nop)"
                        ),
                    )
                })?;
                let latency: u32 = latency
                    .parse()
                    .map_err(|_| err(ln, format!("bad latency `{latency}`")))?;
                routes.push((ln, class, unit.to_string(), latency));
            }
            other => return Err(err(ln, format!("unknown directive `{other}`"))),
        }
    }

    let name = name.ok_or_else(|| err(0, "missing `machine <name>` line"))?;
    if units.is_empty() {
        return Err(err(0, "machine needs at least one `unit`"));
    }
    let mut b = MachineDesc::builder(name);
    b.issue_width(issue).num_regs(regs);
    let mut unit_idx: Vec<(String, usize)> = Vec::new();
    for (uname, count) in &units {
        let idx = b.unit(uname.clone(), *count);
        unit_idx.push((uname.clone(), idx));
    }
    let mut routed = [false; 7];
    for (ln, class, unit_name, latency) in routes {
        let idx = unit_idx
            .iter()
            .find(|(n, _)| *n == unit_name)
            .map(|&(_, i)| i)
            .ok_or_else(|| err(ln, format!("unknown unit `{unit_name}`")))?;
        if latency == 0 {
            return Err(err(ln, "latency must be at least 1"));
        }
        b.route(class, idx, latency);
        routed[class_slot(class)] = true;
    }
    for class in OpClass::ALL {
        if !routed[class_slot(class)] {
            return Err(err(0, format!("missing route for op class `{class}`")));
        }
    }
    Ok(b.finish())
}

fn parse_class(s: &str) -> Option<OpClass> {
    Some(match s {
        "int" => OpClass::IntAlu,
        "float" => OpClass::FloatAlu,
        "load" => OpClass::MemLoad,
        "store" => OpClass::MemStore,
        "branch" => OpClass::Branch,
        "call" => OpClass::Call,
        "nop" => OpClass::Nop,
        _ => return None,
    })
}

fn class_slot(c: OpClass) -> usize {
    match c {
        OpClass::IntAlu => 0,
        OpClass::FloatAlu => 1,
        OpClass::MemLoad => 2,
        OpClass::MemStore => 3,
        OpClass::Branch => 4,
        OpClass::Call => 5,
        OpClass::Nop => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_LIKE: &str = r#"
        # the paper's 2-unit machine
        machine paperlike
        issue 4
        regs 16
        unit fixed 1
        unit float 1
        unit fetch 1
        unit branch 1
        route int    fixed  1
        route float  float  1
        route load   fetch  1
        route store  fetch  1
        route branch branch 1
        route call   branch 1
        route nop    fixed  1
    "#;

    #[test]
    fn round_trip_matches_preset_behaviour() {
        let m = parse_machine_spec(PAPER_LIKE).unwrap();
        let preset = crate::presets::paper_machine(16);
        assert_eq!(m.issue_width(), preset.issue_width());
        assert_eq!(m.num_regs(), preset.num_regs());
        for a in OpClass::ALL {
            for b in OpClass::ALL {
                assert_eq!(
                    m.pairwise_conflict(a, b),
                    preset.pairwise_conflict(a, b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn rejects_missing_route() {
        let src = "machine m\nunit u 1\nroute int u 1\n";
        let e = parse_machine_spec(src).unwrap_err();
        assert!(e.message.contains("missing route"));
    }

    #[test]
    fn rejects_unknown_unit_and_class() {
        let e = parse_machine_spec("machine m\nunit u 1\nroute int nope 1\n").unwrap_err();
        assert!(e.message.contains("unknown unit"));
        let e = parse_machine_spec("machine m\nunit u 1\nroute wizardry u 1\n").unwrap_err();
        assert!(e.message.contains("unknown op class"));
    }

    #[test]
    fn rejects_bad_numbers_and_directives() {
        for (src, needle) in [
            ("machine m\nissue lots\n", "bad width"),
            ("machine m\nunit u zero\n", "bad unit count"),
            ("machine m\nunit u 0\n", "must be positive"),
            ("machine m\nregs 0\n", "regs must be at least 1"),
            ("machine m\nfrobnicate\n", "unknown directive"),
            ("unit u 1\n", "missing `machine"),
            ("machine m\n", "at least one `unit`"),
        ] {
            let e = parse_machine_spec(src).unwrap_err();
            assert!(e.message.contains(needle), "{src:?}: {e}");
        }
    }

    #[test]
    fn error_display_has_line() {
        let e = parse_machine_spec("machine m\nbogus x\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }
}
