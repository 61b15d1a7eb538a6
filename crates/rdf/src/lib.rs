#![warn(missing_docs)]
//! # shapex-rdf
//!
//! The RDF substrate for the `shapex` validator: an in-memory, interned
//! triple store with the graph operations the paper's validation algorithms
//! need (most importantly node neighbourhoods `Σg_n`), plus Turtle and
//! N-Triples parsers, serializers, and XSD datatype support.
//!
//! ## Quick tour
//!
//! ```
//! use shapex_rdf::turtle;
//!
//! let ds = turtle::parse(r#"
//!     @prefix : <http://example.org/> .
//!     @prefix foaf: <http://xmlns.com/foaf/0.1/> .
//!     :john foaf:age 23; foaf:name "John" .
//! "#).unwrap();
//!
//! let john = ds.iri("http://example.org/john").unwrap();
//! assert_eq!(ds.graph.neighbourhood(john).len(), 2);
//! ```

pub mod delta;
pub mod failpoint;
pub mod graph;
pub mod iso;
pub mod ntriples;
pub mod parser;
pub mod pool;
pub mod term;
pub mod turtle;
pub mod vocab;
pub mod writer;
pub mod xsd;

pub use delta::{AppliedDelta, DeltaApplyError, DeltaError, GraphDelta};
pub use graph::{Arc, Dataset, Graph, Triple};
pub use iso::are_isomorphic;
pub use parser::ParseError;
pub use pool::{TermId, TermPool};
pub use term::{BlankNode, Iri, Literal, Term, TermRef};

/// Input format of a data source: the one dispatch every front end uses
/// to turn data text into a [`Dataset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataFormat {
    /// Turtle (the default).
    #[default]
    Turtle,
    /// Strict line-oriented N-Triples, parsed in parallel (byte-identical
    /// to a sequential parse at any worker count).
    NTriples,
}

impl DataFormat {
    /// Detects the format from a data file path: `.nt` means N-Triples,
    /// anything else Turtle.
    pub fn from_path(path: &str) -> DataFormat {
        if path.ends_with(".nt") {
            DataFormat::NTriples
        } else {
            DataFormat::Turtle
        }
    }

    /// Parses a client-supplied format name.
    pub fn from_name(name: &str) -> Result<DataFormat, String> {
        match name {
            "turtle" => Ok(DataFormat::Turtle),
            "ntriples" => Ok(DataFormat::NTriples),
            other => Err(format!(
                "unknown data format '{other}' (expected 'turtle' or 'ntriples')"
            )),
        }
    }

    /// Strictly parses `src` in this format: N-Triples on `jobs` worker
    /// threads ([`ntriples::parse_par`]), Turtle with [`turtle::parse`].
    pub fn parse(self, src: &str, jobs: usize) -> Result<Dataset, ParseError> {
        match self {
            DataFormat::Turtle => turtle::parse(src),
            DataFormat::NTriples => ntriples::parse_par(src, jobs),
        }
    }
}
