//! The unified estimation-error taxonomy.
//!
//! An optimizer embedding the estimator needs to *branch* on why an
//! estimate failed: a malformed query is the caller's bug (reject it), a
//! corrupt model file is an operational incident (reload, page someone), a
//! blown inference budget is expected on pathological templates (fall back
//! to a cheaper estimator), and an internal panic means degrade and keep
//! serving. [`Error`] carries exactly those classes; the lower layers'
//! [`reldb::Error`] values classify into it losslessly via `From`, and a
//! reverse `From` keeps legacy `reldb::Result` call sites compiling.
//!
//! The class taxonomy:
//!
//! | class | meaning | typical reaction |
//! |---|---|---|
//! | [`Error::Schema`]   | query names unknown tables/attrs, bad joins | reject the query |
//! | [`Error::Parse`]    | malformed input text (SQL, CSV, manifest) | reject the input |
//! | [`Error::Budget`]   | an inference guard tripped (width/deadline) | fall back |
//! | [`Error::Corrupt`]  | persisted artifact failed validation | reload / alert |
//! | [`Error::Internal`] | bug, injected fault, or isolated panic | degrade, file a bug |

use std::fmt;

/// Convenience alias used throughout the online estimation path.
pub type Result<T> = std::result::Result<T, Error>;

/// The failure class of an [`Error`] — what callers branch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// The query does not fit the schema/model.
    Schema,
    /// Input text failed to parse.
    Parse,
    /// An inference guard (width budget or deadline) tripped.
    Budget,
    /// A persisted artifact is corrupt or incompatible.
    Corrupt,
    /// A bug, injected fault, or isolated worker panic.
    Internal,
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorClass::Schema => "schema",
            ErrorClass::Parse => "parse",
            ErrorClass::Budget => "budget",
            ErrorClass::Corrupt => "corrupt",
            ErrorClass::Internal => "internal",
        })
    }
}

/// Which guard rejected the inference (see [`crate::guard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// An elimination step would materialize a factor wider than
    /// `PRMSEL_WIDTH_BUDGET` cells.
    Width,
    /// The per-estimate wall-clock deadline (`PRMSEL_DEADLINE_MS`) passed.
    Deadline,
}

/// Errors raised by the estimation stack, grouped by failure class.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The query references schema objects the model does not know, or its
    /// join graph is malformed. Wraps the precise relational error.
    Schema(reldb::Error),
    /// Malformed input text (SQL, CSV contents, schema manifests).
    Parse(String),
    /// An inference guard tripped instead of letting the process OOM or
    /// stall; the detail says which limit and by how much.
    Budget {
        /// Which guard fired.
        kind: BudgetKind,
        /// Human-readable specifics (projected cells vs. limit, elapsed
        /// vs. deadline).
        detail: String,
    },
    /// A persisted artifact failed validation, with the byte offset at
    /// which the damage was detected when known.
    Corrupt {
        /// Byte offset into the artifact where validation failed.
        offset: Option<u64>,
        /// What failed (bad magic, checksum mismatch, truncated field…).
        detail: String,
    },
    /// A bug, an injected fault, or a worker panic isolated by the
    /// resilience layer.
    Internal(String),
}

impl Error {
    /// The failure class — what degradation ladders and optimizers branch
    /// on.
    pub fn class(&self) -> ErrorClass {
        match self {
            Error::Schema(_) => ErrorClass::Schema,
            Error::Parse(_) => ErrorClass::Parse,
            Error::Budget { .. } => ErrorClass::Budget,
            Error::Corrupt { .. } => ErrorClass::Corrupt,
            Error::Internal(_) => ErrorClass::Internal,
        }
    }

    /// An [`Error::Internal`] from a payload caught by
    /// `std::panic::catch_unwind`.
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Error {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_owned());
        Error::Internal(format!("worker panicked: {msg}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Schema(e) => write!(f, "schema error: {e}"),
            Error::Parse(msg) => write!(f, "parse error: {msg}"),
            Error::Budget { kind, detail } => match kind {
                BudgetKind::Width => write!(f, "budget exceeded (width): {detail}"),
                BudgetKind::Deadline => write!(f, "budget exceeded (deadline): {detail}"),
            },
            Error::Corrupt { offset: Some(at), detail } => {
                write!(f, "corrupt artifact at byte {at}: {detail}")
            }
            Error::Corrupt { offset: None, detail } => {
                write!(f, "corrupt artifact: {detail}")
            }
            Error::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Classifies a relational-engine error into the estimation taxonomy.
impl From<reldb::Error> for Error {
    fn from(e: reldb::Error) -> Error {
        match e {
            reldb::Error::Parse(msg) => Error::Parse(msg),
            reldb::Error::Corrupt(detail) => Error::Corrupt { offset: None, detail },
            reldb::Error::Io(msg) => Error::Internal(format!("i/o: {msg}")),
            reldb::Error::Exhausted(detail) => {
                Error::Budget { kind: BudgetKind::Width, detail }
            }
            reldb::Error::Internal(msg) => Error::Internal(msg),
            // Everything else describes a query/schema mismatch precisely;
            // keep the original for its message and structure.
            other => Error::Schema(other),
        }
    }
}

/// Back-map for legacy `reldb::Result` call sites (examples, benches, the
/// executor): the class survives, structure degrades to text where reldb
/// has no equivalent variant.
impl From<Error> for reldb::Error {
    fn from(e: Error) -> reldb::Error {
        match e {
            Error::Schema(inner) => inner,
            Error::Parse(msg) => reldb::Error::Parse(msg),
            Error::Budget { .. } => reldb::Error::Exhausted(e_detail(&e)),
            Error::Corrupt { offset: Some(at), detail } => {
                reldb::Error::Corrupt(format!("at byte {at}: {detail}"))
            }
            Error::Corrupt { offset: None, detail } => reldb::Error::Corrupt(detail),
            Error::Internal(msg) => reldb::Error::Internal(msg),
        }
    }
}

fn e_detail(e: &Error) -> String {
    match e {
        Error::Budget { kind: BudgetKind::Width, detail } => format!("width: {detail}"),
        Error::Budget { kind: BudgetKind::Deadline, detail } => {
            format!("deadline: {detail}")
        }
        other => other.to_string(),
    }
}

/// Injected faults surface as [`Error::Internal`] so the ladder treats
/// them exactly like real bugs.
impl From<failpoint::Injected> for Error {
    fn from(e: failpoint::Injected) -> Error {
        Error::Internal(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_every_variant() {
        let cases = [
            (Error::Schema(reldb::Error::UnknownTable("t".into())), ErrorClass::Schema),
            (Error::Parse("x".into()), ErrorClass::Parse),
            (
                Error::Budget { kind: BudgetKind::Width, detail: "w".into() },
                ErrorClass::Budget,
            ),
            (Error::Corrupt { offset: Some(3), detail: "c".into() }, ErrorClass::Corrupt),
            (Error::Internal("i".into()), ErrorClass::Internal),
        ];
        for (err, class) in cases {
            assert_eq!(err.class(), class, "{err}");
        }
    }

    #[test]
    fn reldb_errors_classify() {
        let schema: Error = reldb::Error::UnknownTable("t".into()).into();
        assert_eq!(schema.class(), ErrorClass::Schema);
        let parse: Error = reldb::Error::Parse("bad".into()).into();
        assert_eq!(parse.class(), ErrorClass::Parse);
        let corrupt: Error = reldb::Error::Corrupt("bits".into()).into();
        assert_eq!(corrupt.class(), ErrorClass::Corrupt);
        let io: Error = reldb::Error::Io("disk".into()).into();
        assert_eq!(io.class(), ErrorClass::Internal);
    }

    #[test]
    fn back_map_round_trips_schema_structure() {
        let original = reldb::Error::UnknownAttr { table: "t".into(), attr: "a".into() };
        let up: Error = original.clone().into();
        let down: reldb::Error = up.into();
        assert_eq!(down, original);
    }

    #[test]
    fn corrupt_offset_lands_in_both_renderings() {
        let e = Error::Corrupt { offset: Some(17), detail: "checksum".into() };
        assert!(e.to_string().contains("byte 17"));
        let down: reldb::Error = e.into();
        assert!(down.to_string().contains("byte 17"));
    }

    #[test]
    fn panics_become_internal() {
        let r = std::panic::catch_unwind(|| panic!("boom {}", 7));
        let e = Error::from_panic(r.unwrap_err());
        assert_eq!(e.class(), ErrorClass::Internal);
        assert!(e.to_string().contains("boom 7"), "{e}");
    }
}
