//! Canned provenance queries (Section IV, "Ongoing work on our prototype
//! includes providing users with forms to express various (canned)
//! provenance queries").
//!
//! A tiny textual query language over one `(run, view)` pair:
//!
//! | form | meaning |
//! |---|---|
//! | `deep d447` | deep provenance of `d447` |
//! | `immediate d413` | immediate provenance of `d413` |
//! | `dependents d2` | data objects with `d2` in their provenance |
//! | `between S1 S2` | data passed from execution `S1` to `S2` |
//! | `between input S1` | user input consumed by `S1` |
//! | `between S10 output` | final outputs produced by `S10` |
//! | `final` | the run's final outputs |
//! | `visible` | every data object visible at this view level |

use std::fmt;
use zoom_model::{DataId, StepId};
use zoom_warehouse::{Op, RunId, ViewId};

/// A parsed canned query.
///
/// ```
/// use zoom_core::CannedQuery;
/// use zoom_model::{DataId, StepId};
/// assert_eq!(
///     CannedQuery::parse("deep d447").unwrap(),
///     CannedQuery::Deep(DataId(447))
/// );
/// assert_eq!(
///     CannedQuery::parse("between input S13").unwrap(),
///     CannedQuery::Between(None, Some(StepId(13)))
/// );
/// assert!(CannedQuery::parse("what produced this?").is_err());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CannedQuery {
    /// Deep provenance of a data object.
    Deep(DataId),
    /// Immediate provenance of a data object.
    Immediate(DataId),
    /// Forward provenance of a data object.
    Dependents(DataId),
    /// Data passed between two executions (`None` = input/output node).
    Between(Option<StepId>, Option<StepId>),
    /// The run's final outputs.
    FinalOutputs,
    /// All data visible at the view level.
    VisibleData,
}

/// A query-form parse error with position context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot parse query: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn parse_data(tok: &str) -> std::result::Result<DataId, ParseError> {
    let digits = tok.strip_prefix('d').unwrap_or(tok);
    digits
        .parse::<u64>()
        .map(DataId)
        .map_err(|_| ParseError(format!("`{tok}` is not a data id (expected e.g. d447)")))
}

fn parse_endpoint(tok: &str) -> std::result::Result<Option<StepId>, ParseError> {
    match tok {
        "input" | "output" => Ok(None),
        _ => {
            let digits = tok.strip_prefix('S').unwrap_or(tok);
            digits.parse::<u32>().map(|n| Some(StepId(n))).map_err(|_| {
                ParseError(format!(
                    "`{tok}` is not an execution id (expected e.g. S13, input, output)"
                ))
            })
        }
    }
}

impl CannedQuery {
    /// Parses a query form.
    pub fn parse(text: &str) -> std::result::Result<Self, ParseError> {
        let toks: Vec<&str> = text.split_whitespace().collect();
        match toks.as_slice() {
            ["deep", d] => Ok(CannedQuery::Deep(parse_data(d)?)),
            ["immediate", d] => Ok(CannedQuery::Immediate(parse_data(d)?)),
            ["dependents", d] => Ok(CannedQuery::Dependents(parse_data(d)?)),
            ["between", a, b] => Ok(CannedQuery::Between(parse_endpoint(a)?, parse_endpoint(b)?)),
            ["final"] => Ok(CannedQuery::FinalOutputs),
            ["visible"] => Ok(CannedQuery::VisibleData),
            [] => Err(ParseError("empty query".to_string())),
            _ => Err(ParseError(format!(
                "unknown form `{text}` (try: deep dN | immediate dN | dependents dN | \
                 between X Y | final | visible)"
            ))),
        }
    }

    /// The op that answers this form against one `(run, view)` pair; its
    /// [`zoom_warehouse::Answer`] renders the way `zoomctl query` prints.
    pub fn op(&self, run: RunId, view: ViewId) -> Op {
        match *self {
            CannedQuery::Deep(d) => Op::DeepProvenance(run, view, d),
            CannedQuery::Immediate(d) => Op::ImmediateProvenance(run, view, d),
            CannedQuery::Dependents(d) => Op::DependentsOf(run, view, d),
            CannedQuery::Between(a, b) => Op::DataBetween(run, view, a, b),
            CannedQuery::FinalOutputs => Op::FinalOutputs(run),
            CannedQuery::VisibleData => Op::VisibleData(run, view),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Zoom;
    use zoom_model::{RunBuilder, SpecBuilder};

    #[test]
    fn parser_accepts_all_forms() {
        assert_eq!(
            CannedQuery::parse("deep d447").unwrap(),
            CannedQuery::Deep(DataId(447))
        );
        assert_eq!(
            CannedQuery::parse("immediate 413").unwrap(),
            CannedQuery::Immediate(DataId(413))
        );
        assert_eq!(
            CannedQuery::parse("dependents d2").unwrap(),
            CannedQuery::Dependents(DataId(2))
        );
        assert_eq!(
            CannedQuery::parse("between S1 S2").unwrap(),
            CannedQuery::Between(Some(StepId(1)), Some(StepId(2)))
        );
        assert_eq!(
            CannedQuery::parse("between input S1").unwrap(),
            CannedQuery::Between(None, Some(StepId(1)))
        );
        assert_eq!(
            CannedQuery::parse("between S3 output").unwrap(),
            CannedQuery::Between(Some(StepId(3)), None)
        );
        assert_eq!(
            CannedQuery::parse("final").unwrap(),
            CannedQuery::FinalOutputs
        );
        assert_eq!(
            CannedQuery::parse("  visible  ").unwrap(),
            CannedQuery::VisibleData
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(CannedQuery::parse("").is_err());
        assert!(CannedQuery::parse("deep").is_err());
        assert!(CannedQuery::parse("deep xyz").is_err());
        assert!(CannedQuery::parse("between S1").is_err());
        assert!(CannedQuery::parse("between S1 Sx").is_err());
        assert!(CannedQuery::parse("frobnicate d1").is_err());
    }

    #[test]
    fn execute_and_render_answers() {
        let mut b = SpecBuilder::new("q");
        b.analysis("A");
        b.analysis("B");
        b.from_input("A").edge("A", "B").to_output("B");
        let s = b.build().unwrap();
        let mut z = Zoom::new();
        let sid = z.register_workflow(s.clone()).unwrap();
        let admin = z.admin_view(sid).unwrap();
        let mut rb = RunBuilder::new(&s);
        rb.user("alice");
        let s1 = rb.step(s.module("A").unwrap());
        let s2 = rb.step(s.module("B").unwrap());
        rb.input_edge(s1, [1, 2])
            .data_edge(s1, s2, [3])
            .output_edge(s2, [4]);
        let rid = z.load_run(sid, rb.build().unwrap()).unwrap();

        let run = |text: &str| {
            let op = CannedQuery::parse(text).unwrap().op(rid, admin);
            z.read(&op).unwrap().to_string()
        };
        assert!(run("deep d4").contains("4 tuples"));
        assert!(run("deep d4").contains("d3 <- S1"));
        assert!(run("immediate d3").contains("produced by S1 from 2 input(s): d1..d2"));
        assert!(run("immediate d1").contains("user input by `alice`"));
        assert!(run("dependents d1").contains("d3..d4"));
        assert!(run("between S1 S2").contains("d3"));
        assert!(run("between input S1").contains("d1..d2"));
        assert!(run("final").contains("d4"));
        assert!(run("visible").contains("4 data object(s)"));
    }
}
