//! Structured diagnostics: codes, severities, locations, and the report
//! container with its text/JSON renderers.

use ap_trace::json::quote;
use std::fmt;

/// How bad a finding is.
///
/// The severity policy is fixed per [`Code`]: a defect that makes the design
/// meaningless (a combinational loop, a jump that can never land inside the
/// program) is an [`Error`](Severity::Error) and fails the synthesis or load
/// gate; everything that is suspicious but still simulable (dead logic, a
/// register read before any write — registers power up as zero) is a
/// [`Warning`](Severity::Warning) and is only collected into statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but well-defined; collected into stats, never fatal.
    Warning,
    /// The artifact is malformed; gates refuse to proceed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Machine-readable diagnostic codes.
///
/// `NL…` codes come from the netlist verifier, `RK…` codes from the RISC
/// kernel analyzer. The numeric string (e.g. `"NL001"`) is stable across
/// releases; tooling may match on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// NL001: combinational loop (a cycle not broken by a flip-flop).
    CombLoop,
    /// NL002: flip-flop left floating (`dff_floating` never connected).
    FloatingDff,
    /// NL003: output driven only by constants (or by nothing at all).
    ConstOutput,
    /// NL004: logic cone unreachable from any declared output.
    DeadLogic,
    /// NL005: conflicting output declarations (same port, different buses).
    WidthMismatch,
    /// NL006: net fanout exceeds the routable limit of the timing model.
    FanoutExceeded,
    /// RK101: register read before any write on some path from entry.
    ReadBeforeWrite,
    /// RK102: basic block unreachable from the program entry.
    UnreachableBlock,
    /// RK103: static jump target outside the program.
    JumpOutOfRange,
    /// RK104: load/store displacement inconsistent with the access width.
    MisalignedAccess,
    /// RK105: a reachable path falls off the end of the program.
    FallthroughExit,
    /// RC201: a memory access may escape the kernel's 512 KB page slice.
    FootprintEscape,
    /// RC202: two pages in one activation batch have overlapping write
    /// footprints (relative to their own page bases).
    BatchWriteOverlap,
    /// RC203: the processor-visible control area is written before the
    /// kernel's final store — a sync point published while data writes may
    /// still be in flight.
    UnsyncedVisibleWrite,
    /// RC204: a dynamically recorded access falls outside the statically
    /// declared footprint (dynamic ⊆ static soundness violated).
    DynamicFootprintViolation,
    /// RC205: two pages of one parallel batch dynamically touched
    /// conflicting byte ranges (write/write or write/read overlap).
    DynamicWriteOverlap,
}

impl Code {
    /// Every code: netlist passes, then kernel passes, then race passes.
    pub const ALL: [Code; 16] = [
        Code::CombLoop,
        Code::FloatingDff,
        Code::ConstOutput,
        Code::DeadLogic,
        Code::WidthMismatch,
        Code::FanoutExceeded,
        Code::ReadBeforeWrite,
        Code::UnreachableBlock,
        Code::JumpOutOfRange,
        Code::MisalignedAccess,
        Code::FallthroughExit,
        Code::FootprintEscape,
        Code::BatchWriteOverlap,
        Code::UnsyncedVisibleWrite,
        Code::DynamicFootprintViolation,
        Code::DynamicWriteOverlap,
    ];

    /// The stable machine-readable form (`"NL001"`, `"RK103"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::CombLoop => "NL001",
            Code::FloatingDff => "NL002",
            Code::ConstOutput => "NL003",
            Code::DeadLogic => "NL004",
            Code::WidthMismatch => "NL005",
            Code::FanoutExceeded => "NL006",
            Code::ReadBeforeWrite => "RK101",
            Code::UnreachableBlock => "RK102",
            Code::JumpOutOfRange => "RK103",
            Code::MisalignedAccess => "RK104",
            Code::FallthroughExit => "RK105",
            Code::FootprintEscape => "RC201",
            Code::BatchWriteOverlap => "RC202",
            Code::UnsyncedVisibleWrite => "RC203",
            Code::DynamicFootprintViolation => "RC204",
            Code::DynamicWriteOverlap => "RC205",
        }
    }

    /// The fixed severity of this code (see [`Severity`] for the policy).
    pub fn severity(self) -> Severity {
        match self {
            Code::CombLoop
            | Code::FloatingDff
            | Code::WidthMismatch
            | Code::JumpOutOfRange
            | Code::FallthroughExit
            | Code::FootprintEscape
            | Code::BatchWriteOverlap
            | Code::DynamicFootprintViolation
            | Code::DynamicWriteOverlap => Severity::Error,
            Code::ConstOutput
            | Code::DeadLogic
            | Code::FanoutExceeded
            | Code::ReadBeforeWrite
            | Code::UnreachableBlock
            | Code::MisalignedAccess
            | Code::UnsyncedVisibleWrite => Severity::Warning,
        }
    }

    /// One-line description of what the code means.
    pub fn explanation(self) -> &'static str {
        match self {
            Code::CombLoop => "a combinational cycle oscillates or latches unpredictably",
            Code::FloatingDff => "a flip-flop whose data input was never connected holds garbage",
            Code::ConstOutput => "an output that cannot change carries no information",
            Code::DeadLogic => "logic no output observes wastes area and hides intent",
            Code::WidthMismatch => "conflicting declarations make the port width ambiguous",
            Code::FanoutExceeded => "fanout beyond the routable limit breaks the timing model",
            Code::ReadBeforeWrite => "a register is read before any instruction writes it",
            Code::UnreachableBlock => "no control path reaches this code",
            Code::JumpOutOfRange => "the jump target is outside the program",
            Code::MisalignedAccess => "the displacement is not a multiple of the access width",
            Code::FallthroughExit => "execution can run off the end of the program",
            Code::FootprintEscape => "an access may land outside the kernel's own page slice",
            Code::BatchWriteOverlap => {
                "batched pages with overlapping writes race under parallel execution"
            }
            Code::UnsyncedVisibleWrite => {
                "the sync word is published while later stores are still in flight"
            }
            Code::DynamicFootprintViolation => {
                "a recorded access escaped the declared static footprint"
            }
            Code::DynamicWriteOverlap => {
                "pages of one parallel batch touched conflicting byte ranges"
            }
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Where a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// A netlist node, by index.
    Node(u32),
    /// An instruction, by index (the PC of the offending instruction).
    Inst(u32),
    /// A named port (netlist input or output).
    Port(String),
    /// The design as a whole.
    Design,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Node(n) => write!(f, "node {n}"),
            Location::Inst(pc) => write!(f, "inst {pc}"),
            Location::Port(p) => write!(f, "port '{p}'"),
            Location::Design => write!(f, "design"),
        }
    }
}

/// One finding: code, severity, location, human explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Machine-readable code.
    pub code: Code,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// Where in the artifact.
    pub location: Location,
    /// Specific explanation for this instance.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic with the severity the code dictates.
    pub fn new(code: Code, location: Location, message: impl Into<String>) -> Self {
        Diagnostic { code, severity: code.severity(), location, message: message.into() }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} at {}: {}", self.severity, self.code, self.location, self.message)
    }
}

/// Error/warning totals of one report (or of a whole run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Error-severity findings.
    pub errors: u32,
    /// Warning-severity findings.
    pub warnings: u32,
}

/// All findings of one pass over one subject.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    subject: String,
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report about `subject` (a circuit or kernel name).
    pub fn new(subject: impl Into<String>) -> Self {
        Report { subject: subject.into(), diagnostics: Vec::new() }
    }

    /// The subject this report describes.
    pub fn subject(&self) -> &str {
        &self.subject
    }

    /// Records a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// The findings, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// True when nothing was found.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> u32 {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count() as u32
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> u32 {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count() as u32
    }

    /// True when any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// The error/warning totals.
    pub fn summary(&self) -> Summary {
        Summary { errors: self.errors(), warnings: self.warnings() }
    }

    /// Findings carrying `code`.
    pub fn with_code(&self, code: Code) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Renders as compiler-style text, one line per finding, with a
    /// trailing totals line. The empty report renders as a single clean
    /// line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{}: {d}\n", self.subject));
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s)\n",
            self.subject,
            self.errors(),
            self.warnings()
        ));
        out
    }

    /// Renders as one JSON object (subject, totals, findings array).
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"subject\":{},\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            quote(&self.subject),
            self.errors(),
            self.warnings()
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"location\":{},\"message\":{}}}",
                d.code,
                d.severity,
                quote(&d.location.to_string()),
                quote(&d.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(c.as_str().len() == 5);
            assert!(!c.explanation().is_empty());
        }
    }

    #[test]
    fn severity_follows_code() {
        let d = Diagnostic::new(Code::CombLoop, Location::Node(3), "loop");
        assert_eq!(d.severity, Severity::Error);
        let d = Diagnostic::new(Code::DeadLogic, Location::Node(3), "dead");
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn report_counts_and_renders() {
        let mut r = Report::new("toy");
        assert!(r.is_empty() && !r.has_errors());
        r.push(Diagnostic::new(Code::CombLoop, Location::Node(1), "a \"cycle\""));
        r.push(Diagnostic::new(Code::DeadLogic, Location::Node(2), "dead"));
        assert_eq!(r.summary(), Summary { errors: 1, warnings: 1 });
        assert_eq!(r.with_code(Code::CombLoop).count(), 1);
        let text = r.render_text();
        assert!(text.contains("error NL001 at node 1"), "{text}");
        assert!(text.contains("1 error(s), 1 warning(s)"));
        let json = r.render_json();
        assert!(json.contains("\\\"cycle\\\""), "escaping broken: {json}");
        assert!(json.contains("\"errors\":1"));
    }
}
