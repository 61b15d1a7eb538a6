//! N-Triples parser: one triple per line, full IRIs only, no abbreviations.
//!
//! Strict subset of Turtle, but implemented as its own parser because
//! N-Triples rejects Turtle-only syntax (prefixed names, `a`, multi-line
//! statements, ...). Per the W3C grammar the format is *strictly
//! line-oriented*: a triple may not span lines, comments are only allowed
//! on otherwise-empty lines or after the terminating `.`, and every error
//! is reported with the 1-based line and column it occurred on.
//!
//! ## The load path
//!
//! Loading a dump is three steps, shared by [`parse`] and [`parse_par`]:
//!
//! 1. **Scan.** A byte-level scanner walks each line as `&[u8]`. Every
//!    delimiter the grammar cares about is ASCII, so it never decodes
//!    UTF-8 on the common path, and it hands out terms as borrowed `&str`
//!    slices of the input ([`TermRef`]s). Only a string holding a `\`
//!    escape (or an upper-case language tag) is decoded, into scratch
//!    buffers reused across lines. Columns are counted in chars, and only
//!    when an error is built.
//! 2. **Intern.** Each borrowed term is interned into a [`TermPool`] as
//!    soon as it is scanned. The pool stores every distinct term once and
//!    finds a repeated one by hash and compare, without allocating.
//! 3. **Build.** The triple list, in document order, becomes the graph in
//!    bulk ([`Graph::from_triples`]): deduplicated, with both adjacency
//!    arenas filled in their compacted layout by a counting sort.
//!
//! Line-orientation is also what makes dumps parallelizable:
//! [`parse_par`] splits the input at line boundaries into byte ranges,
//! scans and interns the chunks on scoped worker threads into chunk-local
//! pools, then merges them deterministically into one shared pool —
//! producing a [`Dataset`] *byte-identical* to sequential [`parse`] (same
//! `TermId` assignment, same adjacency order, same first error).

use crate::graph::{Dataset, Graph, Triple};
use crate::parser::{simple_escape, ParseError};
use crate::pool::{TermId, TermPool};
use crate::term::TermRef;
use crate::vocab::{rdf, xsd};

/// Parses an N-Triples document into a fresh [`Dataset`], whose graph is
/// built in bulk and so already compact.
pub fn parse(input: &str) -> Result<Dataset, ParseError> {
    let (pool, triples) = load(input)?;
    Ok(Dataset {
        pool,
        graph: Graph::from_triples(triples),
    })
}

/// Default minimum chunk size for [`parse_par`]: inputs smaller than this
/// per worker aren't worth a thread.
pub const MIN_CHUNK_BYTES: usize = 1 << 16;

/// Parses an N-Triples document on up to `jobs` worker threads.
///
/// The input is split at line boundaries into byte ranges; each worker
/// scans its range into a chunk-local [`TermPool`] and triple list; the
/// merge phase then moves each chunk's terms into the shared pool *in
/// chunk order* and remaps its triples through them. Because chunk-local
/// interning order is first-occurrence order within the chunk, and
/// interning is idempotent, the merged pool assigns every term exactly the
/// id sequential [`parse`] would — the result is byte-identical, including
/// the first error (workers surface chunk-relative errors; the merge maps
/// the earliest one back to its document line).
pub fn parse_par(input: &str, jobs: usize) -> Result<Dataset, ParseError> {
    parse_par_min_chunk(input, jobs, MIN_CHUNK_BYTES)
}

/// [`parse_par`] with a caller-chosen minimum chunk size. Small documents
/// fall back to sequential parsing under the default threshold; the
/// differential tests pass `min_chunk = 1` so tiny inputs still exercise
/// the chunked path (including torn-seam error handling).
pub fn parse_par_min_chunk(
    input: &str,
    jobs: usize,
    min_chunk: usize,
) -> Result<Dataset, ParseError> {
    let jobs = jobs.max(1);
    let effective = jobs.min(input.len() / min_chunk.max(1) + 1);
    if effective <= 1 {
        return parse(input);
    }

    // Chunk at line boundaries: each boundary is advanced to just past the
    // next '\n', so every chunk holds complete lines. Byte search keeps the
    // seam scan UTF-8-safe ('\n' never occurs inside a multi-byte char).
    let bytes = input.as_bytes();
    let approx = input.len() / effective;
    let mut chunks: Vec<&str> = Vec::with_capacity(effective);
    let mut start = 0usize;
    while start < input.len() {
        let mut end = (start + approx.max(1)).min(input.len());
        if chunks.len() + 1 == effective {
            end = input.len();
        } else {
            match bytes[end..].iter().position(|&b| b == b'\n') {
                Some(i) => end += i + 1,
                None => end = input.len(),
            }
        }
        chunks.push(&input[start..end]);
        start = end;
    }

    let parsed: Vec<Result<(TermPool, Vec<Triple>), ParseError>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| s.spawn(move || load(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("N-Triples worker panicked"))
            .collect()
    });

    // Surface the earliest error exactly as sequential parsing would:
    // chunk-relative line plus the line count of every earlier chunk.
    let mut loaded = Vec::with_capacity(parsed.len());
    for (k, result) in parsed.into_iter().enumerate() {
        loaded.push(result.map_err(|mut err| {
            err.line += chunks[..k].iter().map(|c| count_newlines(c)).sum::<usize>();
            err
        })?);
    }

    // Deterministic merge. The first chunk's pool and triples already are
    // what sequential parsing holds after that chunk's lines, so they are
    // kept as they are. Interning the later chunk pools in chunk order then
    // reproduces sequential id assignment by induction: a chunk's local
    // pool lists terms in first-occurrence order, so the subset not yet
    // seen globally is interned in exactly the order sequential parsing
    // would first meet it. Terms are moved, never cloned: a new one moves
    // into the shared pool, a known one is dropped.
    let mut loaded = loaded.into_iter();
    let (mut pool, mut triples) = loaded.next().expect("a non-empty input has a chunk");
    let rest = loaded.as_slice();
    pool.reserve(rest.iter().map(|(p, _)| p.len()).sum());
    triples.reserve(rest.iter().map(|(_, t)| t.len()).sum());
    for (chunk_pool, chunk_triples) in loaded {
        let remap: Vec<TermId> = chunk_pool
            .into_terms()
            .into_iter()
            .map(|t| pool.intern(t))
            .collect();
        triples.extend(chunk_triples.into_iter().map(|t| {
            Triple::new(
                remap[t.subject.index()],
                remap[t.predicate.index()],
                remap[t.object.index()],
            )
        }));
    }
    Ok(Dataset {
        pool,
        graph: Graph::from_triples(triples),
    })
}

fn count_newlines(s: &str) -> usize {
    s.as_bytes().iter().filter(|&&b| b == b'\n').count()
}

/// Scans and interns `input` into a fresh pool, returning it with the
/// document's triples in order (duplicates included). A line's terms are
/// interned as they are scanned; if a later term on the line is malformed
/// the whole load fails, so that is never observable.
fn load(input: &str) -> Result<(TermPool, Vec<Triple>), ParseError> {
    let mut pool = TermPool::new();
    let mut triples = Vec::with_capacity(count_newlines(input) + 1);
    let mut scratch = Scratch::default();
    // One trailing '\r' per line is stripped, so both LF and CRLF
    // documents parse; a '\r' anywhere else is an error like any other
    // control character.
    for (i, raw) in input.split('\n').enumerate() {
        let mut line = Line {
            text: raw.strip_suffix('\r').unwrap_or(raw),
            pos: 0,
            number: i + 1,
        };
        if let Some(triple) = line.triple(&mut scratch, &mut pool)? {
            triples.push(triple);
        }
    }
    Ok((pool, triples))
}

/// Decode buffers reused across lines, one per string of a term that may
/// need decoding at the same time: an IRI or a literal's lexical form, a
/// literal's datatype, and its lowercased language tag.
#[derive(Default)]
struct Scratch {
    text: String,
    datatype: String,
    lang: String,
}

/// Bytes that end the raw run of an IRIREF: its terminator `>`, the
/// escape `\`, and everything the grammar forbids raw (controls, space,
/// `<"{}|^` and backquote). All are ASCII, so multibyte chars never stop
/// a run.
fn iri_stop(b: u8) -> bool {
    b <= 0x20
        || matches!(
            b,
            b'<' | b'>' | b'"' | b'{' | b'}' | b'|' | b'^' | b'`' | b'\\'
        )
}

/// Bytes that end the raw run of a string literal.
fn literal_stop(b: u8) -> bool {
    matches!(b, b'"' | b'\\' | b'\r')
}

/// The scanner over one line (its line break already removed). `pos` is a
/// byte offset and always sits on a char boundary.
struct Line<'a> {
    text: &'a str,
    pos: usize,
    number: usize,
}

impl<'a> Line<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The char at `pos`, for messages and the rare non-ASCII check.
    fn char_here(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    /// Advances while `more` holds for the next byte.
    fn skip_while(&mut self, more: impl Fn(u8) -> bool) {
        while self.peek().is_some_and(&more) {
            self.pos += 1;
        }
    }

    /// An error at `pos`; the column counts chars, not bytes.
    fn error(&self, message: impl Into<String>) -> ParseError {
        let column = self.text[..self.pos].chars().count() + 1;
        ParseError::new(self.number, column, message)
    }

    /// An error naming the char at `pos`, via `message(c)`.
    fn error_got(&self, message: impl FnOnce(char) -> String) -> ParseError {
        let c = self.char_here().expect("error_got at end of line");
        self.error(message(c))
    }

    /// Scans the line, interning its terms: `None` for an empty or
    /// comment-only line, the triple otherwise.
    fn triple(
        &mut self,
        scratch: &mut Scratch,
        pool: &mut TermPool,
    ) -> Result<Option<Triple>, ParseError> {
        // Between terms the grammar allows space and tab only.
        let ws = |b| b == b' ' || b == b'\t';
        self.skip_while(ws);
        let subject = match self.peek() {
            None | Some(b'#') => return Ok(None),
            Some(b'<') => TermRef::Iri(self.iri(&mut scratch.text)?),
            Some(b'_') => self.blank()?,
            Some(b'"') => return Err(self.error("subject must be an IRI or blank node")),
            Some(_) => return Err(self.error_got(|c| format!("expected subject, got '{c}'"))),
        };
        let subject = pool.intern_ref(subject);
        self.skip_while(ws);
        let predicate = match self.peek() {
            Some(b'<') => self.iri(&mut scratch.text)?,
            Some(_) => {
                return Err(self.error_got(|c| format!("predicate must be an IRI, got '{c}'")))
            }
            None => return Err(self.error("expected predicate before end of line")),
        };
        let predicate = pool.intern_ref(TermRef::Iri(predicate));
        self.skip_while(ws);
        let object = match self.peek() {
            Some(b'<') => TermRef::Iri(self.iri(&mut scratch.text)?),
            Some(b'_') => self.blank()?,
            Some(b'"') => self.literal(scratch)?,
            Some(_) => return Err(self.error_got(|c| format!("expected object, got '{c}'"))),
            None => return Err(self.error("expected object before end of line")),
        };
        let object = pool.intern_ref(object);
        self.skip_while(ws);
        match self.peek() {
            Some(b'.') => self.pos += 1,
            Some(_) => {
                return Err(
                    self.error_got(|c| format!("expected '.' terminating triple, got '{c}'"))
                )
            }
            None => return Err(self.error("expected '.' terminating triple before end of line")),
        }
        self.skip_while(ws);
        match self.peek() {
            None | Some(b'#') => Ok(Some(Triple::new(subject, predicate, object))),
            Some(_) => {
                Err(self
                    .error_got(|c| format!("unexpected '{c}' after triple (one triple per line)")))
            }
        }
    }

    /// IRIREF, positioned on its `<`. Borrowed from the line unless it
    /// holds a `\u`/`\U` escape; then it is decoded into `buf`.
    fn iri<'s>(&mut self, buf: &'s mut String) -> Result<&'s str, ParseError>
    where
        'a: 's,
    {
        self.pos += 1; // '<'
        let (text, start) = (self.text, self.pos);
        let mut decoding = false;
        loop {
            let run = self.pos;
            self.skip_while(|b| !iri_stop(b));
            if decoding {
                buf.push_str(&text[run..self.pos]);
            }
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(if decoding {
                        buf
                    } else {
                        &text[start..self.pos - 1]
                    });
                }
                Some(b'\\') => {
                    if !decoding {
                        decoding = true;
                        buf.clear();
                        buf.push_str(&text[start..self.pos]);
                    }
                    self.pos += 1;
                    let digits = match self.peek() {
                        Some(b'u') => 4,
                        Some(b'U') => 8,
                        _ => {
                            self.pos += self.char_here().map_or(0, char::len_utf8);
                            return Err(self.error("invalid escape in IRI (only \\u/\\U allowed)"));
                        }
                    };
                    self.pos += 1;
                    buf.push(self.hex_escape(digits)?);
                }
                // IRIREF forbids controls, space, and <"{}|^` raw — they
                // must be \u-escaped (the grammar's UCHAR production).
                Some(b) => {
                    self.pos += 1;
                    return Err(self.error(format!(
                        "character U+{b:04X} not allowed in IRI (use \\u escape)"
                    )));
                }
                None => return Err(self.error("unterminated IRI")),
            }
        }
    }

    /// `\u`/`\U` escape body: `digits` hex digits, positioned after the
    /// `u`/`U`.
    fn hex_escape(&mut self, digits: usize) -> Result<char, ParseError> {
        let mut value: u32 = 0;
        for _ in 0..digits {
            let c = self
                .char_here()
                .ok_or_else(|| self.error("unterminated unicode escape"))?;
            self.pos += c.len_utf8();
            let d = c
                .to_digit(16)
                .ok_or_else(|| self.error(format!("invalid hex digit '{c}' in unicode escape")))?;
            value = value * 16 + d;
        }
        char::from_u32(value).ok_or_else(|| self.error(format!("invalid code point U+{value:X}")))
    }

    /// BLANK_NODE_LABEL, positioned on its `_`. Always borrowed.
    fn blank(&mut self) -> Result<TermRef<'a>, ParseError> {
        if !self.text.as_bytes()[self.pos..].starts_with(b"_:") {
            return Err(self.error("expected '_:'"));
        }
        self.pos += 2;
        let start = self.pos;
        while let Some(b) = self.peek() {
            let len = if b.is_ascii() {
                usize::from(b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
            } else {
                let c = self.char_here().expect("non-ASCII byte starts a char");
                if c.is_alphanumeric() {
                    c.len_utf8()
                } else {
                    0
                }
            };
            if len == 0 {
                break;
            }
            self.pos += len;
        }
        if self.pos == start {
            return Err(self.error("empty blank node label"));
        }
        Ok(TermRef::BlankNode(&self.text[start..self.pos]))
    }

    /// A literal with its optional language tag or datatype, positioned on
    /// the opening `"`.
    fn literal<'s>(&mut self, scratch: &'s mut Scratch) -> Result<TermRef<'s>, ParseError>
    where
        'a: 's,
    {
        let lexical = self.string(&mut scratch.text)?;
        if self.peek() == Some(b'@') {
            // LANGTAG ::= [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*
            self.pos += 1;
            let start = self.pos;
            self.skip_while(|b| b.is_ascii_alphabetic());
            if self.pos == start {
                return Err(self.error("language tag must start with a letter"));
            }
            while self.peek() == Some(b'-') {
                self.pos += 1;
                let before = self.pos;
                self.skip_while(|b| b.is_ascii_alphanumeric());
                if self.pos == before {
                    return Err(self.error("empty language subtag"));
                }
            }
            // Tags are case-insensitive; terms keep them lowercase.
            let mut lang = &self.text[start..self.pos];
            if lang.bytes().any(|b| b.is_ascii_uppercase()) {
                scratch.lang.clear();
                scratch.lang.push_str(lang);
                scratch.lang.make_ascii_lowercase();
                lang = &scratch.lang;
            }
            return Ok(TermRef::Literal {
                lexical,
                datatype: rdf::LANG_STRING,
                lang: Some(lang),
            });
        }
        let datatype = if self.text.as_bytes()[self.pos..].starts_with(b"^^") {
            self.pos += 2;
            if self.peek() != Some(b'<') {
                return Err(self.error("datatype must be an IRI"));
            }
            self.iri(&mut scratch.datatype)?
        } else {
            xsd::STRING
        };
        Ok(TermRef::Literal {
            lexical,
            datatype,
            lang: None,
        })
    }

    /// STRING_LITERAL_QUOTE, positioned on its opening `"`. Borrowed from
    /// the line unless it holds an escape; then it is decoded into `buf`.
    fn string<'s>(&mut self, buf: &'s mut String) -> Result<&'s str, ParseError>
    where
        'a: 's,
    {
        self.pos += 1; // '"'
        let (text, start) = (self.text, self.pos);
        let mut decoding = false;
        loop {
            let run = self.pos;
            self.skip_while(|b| !literal_stop(b));
            if decoding {
                buf.push_str(&text[run..self.pos]);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(if decoding {
                        buf
                    } else {
                        &text[start..self.pos - 1]
                    });
                }
                Some(b'\\') => {
                    if !decoding {
                        decoding = true;
                        buf.clear();
                        buf.push_str(&text[start..self.pos]);
                    }
                    self.pos += 1;
                    let c = self
                        .char_here()
                        .ok_or_else(|| self.error("unterminated escape sequence"))?;
                    self.pos += c.len_utf8();
                    let decoded = match c {
                        'u' => self.hex_escape(4)?,
                        'U' => self.hex_escape(8)?,
                        c => simple_escape(c).ok_or_else(|| {
                            self.error(format!("invalid escape sequence '\\{c}'"))
                        })?,
                    };
                    buf.push(decoded);
                }
                // The one other stop byte: a raw carriage return, as
                // forbidden mid-line as a raw newline (which lines are
                // pre-split on).
                Some(_) => {
                    self.pos += 1;
                    return Err(self.error("carriage return in string literal (use \\r)"));
                }
                None => return Err(self.error("unterminated string literal")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Literal, Term};
    use crate::writer;

    #[test]
    fn basic_triples() {
        let src = "<http://e/a> <http://e/p> <http://e/b> .\n\
                   <http://e/a> <http://e/p> \"lit\" .\n";
        let ds = parse(src).unwrap();
        assert_eq!(ds.graph.len(), 2);
    }

    #[test]
    fn typed_and_tagged_literals() {
        let src = concat!(
            "<http://e/a> <http://e/p> \"23\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
            "<http://e/a> <http://e/q> \"hi\"@en .\n"
        );
        let ds = parse(src).unwrap();
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::typed("23", xsd::INTEGER)))
            .is_some());
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::lang_string("hi", "en")))
            .is_some());
    }

    #[test]
    fn blank_nodes() {
        let src = "_:a <http://e/p> _:b .";
        let ds = parse(src).unwrap();
        assert_eq!(ds.graph.len(), 1);
        assert!(ds.pool.get(&Term::blank("a")).is_some());
    }

    #[test]
    fn escapes_in_literals() {
        let src = r#"<http://e/a> <http://e/p> "line\nbreak \"q\" A" ."#;
        let ds = parse(src).unwrap();
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::string("line\nbreak \"q\" A")))
            .is_some());
    }

    #[test]
    fn comments_and_blank_lines() {
        let src = "# comment\n\n<http://e/a> <http://e/p> <http://e/b> . # trailing\n";
        assert_eq!(parse(src).unwrap().graph.len(), 1);
    }

    #[test]
    fn crlf_line_endings() {
        let src = "<http://e/a> <http://e/p> <http://e/b> .\r\n# c\r\n<http://e/a> <http://e/p> <http://e/c> .\r\n";
        assert_eq!(parse(src).unwrap().graph.len(), 2);
    }

    #[test]
    fn rejects_turtle_abbreviations() {
        assert!(parse("ex:a ex:p ex:b .").is_err());
        assert!(parse("<http://e/a> a <http://e/B> .").is_err());
        assert!(parse("<http://e/a> <http://e/p> 42 .").is_err());
    }

    #[test]
    fn rejects_literal_subject() {
        let err = parse("\"lit\" <http://e/p> <http://e/b> .").unwrap_err();
        assert!(err.message.contains("subject"), "{}", err.message);
    }

    #[test]
    fn rejects_blank_predicate() {
        assert!(parse("<http://e/a> _:p <http://e/b> .").is_err());
    }

    #[test]
    fn rejects_literal_datatype() {
        assert!(parse("<http://e/a> <http://e/p> \"x\"^^\"y\" .").is_err());
    }

    #[test]
    fn missing_dot_is_error() {
        assert!(parse("<http://e/a> <http://e/p> <http://e/b>").is_err());
    }

    #[test]
    fn rejects_triple_spanning_lines() {
        // Fail-pre-fix: the old parser skipped arbitrary whitespace
        // (including newlines) between terms, accepting multi-line triples
        // the N-Triples grammar forbids.
        let err = parse("<http://e/a>\n<http://e/p> <http://e/b> .\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("predicate"), "{}", err.message);
    }

    #[test]
    fn rejects_comment_mid_triple() {
        // Fail-pre-fix: comments were skipped *between terms*; the grammar
        // only allows them on empty lines or after the terminating '.'.
        let err = parse("<http://e/a> # oops\n<http://e/p> <http://e/b> .\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_two_triples_on_one_line() {
        let src =
            "<http://e/a> <http://e/p> <http://e/b> . <http://e/a> <http://e/p> <http://e/c> .";
        let err = parse(src).unwrap_err();
        assert!(
            err.message.contains("one triple per line"),
            "{}",
            err.message
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        // Fail-pre-fix (for the multi-line acceptance): errors now name the
        // exact offending line of the document.
        let src = "<http://e/a> <http://e/p> <http://e/b> .\n\
                   \n\
                   <http://e/a> <http://e/p> .\n";
        let err = parse(src).unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn rejects_forbidden_chars_in_iri() {
        // Fail-pre-fix: only whitespace was rejected inside <...>; the
        // IRIREF production also forbids <, ", {, }, |, ^, `, and controls.
        for bad in [
            "<http://e/a b>",
            "<http://e/a<b>",
            "<http://e/a\"b>",
            "<http://e/a{b>",
            "<http://e/a|b>",
            "<http://e/a^b>",
            "<http://e/a`b>",
            "<http://e/a\u{7}b>",
        ] {
            let src = format!("{bad} <http://e/p> <http://e/o> .");
            let err = parse(&src).unwrap_err();
            assert_eq!(err.line, 1, "{bad}");
            assert!(err.message.contains("IRI"), "{bad}: {}", err.message);
        }
    }

    #[test]
    fn iri_escape_round_trip() {
        // A \u-escaped forbidden character parses, serializes back as an
        // escape, and re-parses to the same term.
        let src = "<http://e/a\\u0020b> <http://e/p> <http://e/o> .\n";
        let ds = parse(src).unwrap();
        assert!(ds.pool.get(&Term::iri("http://e/a b")).is_some());
        let out = writer::to_ntriples(&ds.graph, &ds.pool);
        assert!(out.contains("<http://e/a\\u0020b>"), "{out}");
        let ds2 = parse(&out).unwrap();
        assert!(ds2.pool.get(&Term::iri("http://e/a b")).is_some());
    }

    #[test]
    fn rejects_raw_carriage_return_in_literal() {
        let src = "<http://e/a> <http://e/p> \"a\rb\" .";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("carriage return"), "{}", err.message);
    }

    #[test]
    fn lang_tag_grammar() {
        assert!(parse("<http://e/a> <http://e/p> \"x\"@en .").is_ok());
        assert!(parse("<http://e/a> <http://e/p> \"x\"@en-US .").is_ok());
        assert!(parse("<http://e/a> <http://e/p> \"x\"@en-US-2 .").is_ok());
        // Fail-pre-fix: the old tag scanner took any [a-zA-Z0-9-]+.
        assert!(parse("<http://e/a> <http://e/p> \"x\"@1 .").is_err());
        assert!(parse("<http://e/a> <http://e/p> \"x\"@-en .").is_err());
        assert!(parse("<http://e/a> <http://e/p> \"x\"@en- .").is_err());
    }

    /// One malformed document per rejection branch, with the exact
    /// `(line, column, message)` the parser reports. Columns count chars,
    /// not bytes (several lines put multibyte text before the error).
    /// Error text and positions are user-visible (the CLI prints them as
    /// `file:line:column: message`), so they are pinned exactly.
    const GOLDEN_REJECTIONS: &[(&str, usize, usize, &str)] = &[
        ("\"lit\" <http://e/p> <http://e/o> .", 1, 1, "subject must be an IRI or blank node"),
        ("ex:a <http://e/p> <http://e/o> .", 1, 1, "expected subject, got 'e'"),
        ("  é <http://e/p> <http://e/o> .", 1, 3, "expected subject, got 'é'"),
        ("😀 <http://e/p> <http://e/o> .", 1, 1, "expected subject, got '😀'"),
        ("_x <http://e/p> <http://e/o> .", 1, 1, "expected '_:'"),
        ("_: <http://e/p> <http://e/o> .", 1, 3, "empty blank node label"),
        ("<http://e/a> _:p <http://e/o> .", 1, 14, "predicate must be an IRI, got '_'"),
        ("<http://e/a> \"x\" <http://e/o> .", 1, 14, "predicate must be an IRI, got '\"'"),
        ("<http://e/a> # comment", 1, 14, "predicate must be an IRI, got '#'"),
        ("<http://e/a>", 1, 13, "expected predicate before end of line"),
        ("<http://e/a> <http://e/p>", 1, 26, "expected object before end of line"),
        ("<http://e/a> <http://e/p>   \t", 1, 30, "expected object before end of line"),
        ("<http://e/a> <http://e/p> 42 .", 1, 27, "expected object, got '4'"),
        ("<http://e/a> <http://e/p> _:!", 1, 29, "empty blank node label"),
        ("<http://e/a> <http://e/p> <http://e/o>", 1, 39, "expected '.' terminating triple before end of line"),
        ("<http://e/a> <http://e/p> <http://e/o> ;", 1, 40, "expected '.' terminating triple, got ';'"),
        ("<http://e/a> <http://e/p> <http://e/o> . x", 1, 42, "unexpected 'x' after triple (one triple per line)"),
        ("<http://e/a> <http://e/p> <http://e/o> .x", 1, 41, "unexpected 'x' after triple (one triple per line)"),
        ("<http://e/a> <http://e/p> <http://e/o> . <http://e/a> <http://e/p> <http://e/c> .", 1, 42, "unexpected '<' after triple (one triple per line)"),
        ("<http://e/a b> <http://e/p> <http://e/o> .", 1, 13, "character U+0020 not allowed in IRI (use \\u escape)"),
        ("<http://é/ü{b> <http://e/p> <http://e/o> .", 1, 13, "character U+007B not allowed in IRI (use \\u escape)"),
        ("<http://e/a> <http://e/p|> <http://e/o> .", 1, 26, "character U+007C not allowed in IRI (use \\u escape)"),
        ("<http://e/a> <http://e/p> <http://e/^o> .", 1, 38, "character U+005E not allowed in IRI (use \\u escape)"),
        ("<http://e/a\u{7}b> <http://e/p> <http://e/o> .", 1, 13, "character U+0007 not allowed in IRI (use \\u escape)"),
        ("<http://e/a\rb> <http://e/p> <http://e/o> .", 1, 13, "character U+000D not allowed in IRI (use \\u escape)"),
        ("<http://e/a<b> <http://e/p> <http://e/o> .", 1, 13, "character U+003C not allowed in IRI (use \\u escape)"),
        ("<http://e/a`b> <http://e/p> <http://e/o> .", 1, 13, "character U+0060 not allowed in IRI (use \\u escape)"),
        ("<http://e/a\\u00zz> <http://e/p> <http://e/o> .", 1, 17, "invalid hex digit 'z' in unicode escape"),
        ("<http://e/a\\u12", 1, 16, "unterminated unicode escape"),
        ("<http://e/\\UFFFFFFFF> <http://e/p> <http://e/o> .", 1, 21, "invalid code point U+FFFFFFFF"),
        ("<http://e/\\uD800> <http://e/p> <http://e/o> .", 1, 17, "invalid code point U+D800"),
        ("<http://e/a\\n> <http://e/p> <http://e/o> .", 1, 14, "invalid escape in IRI (only \\u/\\U allowed)"),
        ("<http://e/a\\", 1, 13, "invalid escape in IRI (only \\u/\\U allowed)"),
        ("<http://e/a", 1, 12, "unterminated IRI"),
        ("<http://e/a> <http://e/p> \"a\rb\" .", 1, 30, "carriage return in string literal (use \\r)"),
        ("<http://e/a> <http://e/p> \"abc", 1, 31, "unterminated string literal"),
        ("<http://e/a> <http://e/p> \"a\\qb\" .", 1, 31, "invalid escape sequence '\\q'"),
        ("<http://e/a> <http://e/p> \"ab\\", 1, 31, "unterminated escape sequence"),
        ("<http://e/a> <http://e/p> \"é\\u00g0\" .", 1, 34, "invalid hex digit 'g' in unicode escape"),
        ("<http://e/a> <http://e/p> \"é\\U0011FFFF\" .", 1, 39, "invalid code point U+11FFFF"),
        ("<http://e/a> <http://e/p> \"x\"@1 .", 1, 31, "language tag must start with a letter"),
        ("<http://e/a> <http://e/p> \"x\"@ .", 1, 31, "language tag must start with a letter"),
        ("<http://e/a> <http://e/p> \"x\"@en- .", 1, 34, "empty language subtag"),
        ("<http://e/a> <http://e/p> \"ü\"@en-US-é .", 1, 37, "empty language subtag"),
        ("<http://e/a> <http://e/p> \"x\"^^\"y\" .", 1, 32, "datatype must be an IRI"),
        ("<http://e/a> <http://e/p> \"x\"^<http://e/d> .", 1, 30, "expected '.' terminating triple, got '^'"),
        ("<http://e/a> <http://e/p> \"x\"^^<http://e/d .", 1, 44, "character U+0020 not allowed in IRI (use \\u escape)"),
        ("<http://e/a> <http://e/p> \"x\"^^<http://e/d\\u0zzz> .", 1, 47, "invalid hex digit 'z' in unicode escape"),
        ("<http://e/a> <http://e/p> _:é!x .", 1, 30, "expected '.' terminating triple, got '!'"),
        ("<http://e/a> <http://e/p> \"x\\U0001F600\\u00E9\"@en .junk", 1, 51, "unexpected 'j' after triple (one triple per line)"),
        ("<http://e/a>\t<http://e/p>\t<http://e/o>\t.\tx", 1, 42, "unexpected 'x' after triple (one triple per line)"),
        ("<http://e/a> <http://e/p> <http://e/o> .\r\n<http://e/a> <http://e/p>\r\n", 2, 26, "expected object before end of line"),
        ("<http://e/a> <http://e/p> <http://e/o> .\r\r\n", 1, 41, "unexpected '\r' after triple (one triple per line)"),
        ("# ü comment\r\n\r\n<http://e/ü> <http://e/p> \"ü\" ü\r\n", 3, 31, "expected '.' terminating triple, got 'ü'"),
        ("<http://e/a> <http://e/p> <http://e/o> .\n\n  # c\n<http://e/ä> <http://e/p> \"ö\"@de-\n", 4, 34, "empty language subtag"),
        ("<http://e/a>\n<http://e/p> <http://e/o> .\n", 1, 13, "expected predicate before end of line"),
    ];

    #[test]
    fn golden_rejection_table() {
        for &(doc, line, column, message) in GOLDEN_REJECTIONS {
            let err = parse(doc).unwrap_err();
            assert_eq!(
                (err.line, err.column, err.message.as_str()),
                (line, column, message),
                "{doc:?}"
            );
            for jobs in 2..=4 {
                assert_eq!(
                    parse_par_min_chunk(doc, jobs, 1).unwrap_err(),
                    err,
                    "{doc:?}"
                );
            }
        }
    }

    fn sample_doc(lines: usize) -> String {
        let mut doc = String::new();
        for i in 0..lines {
            // Recurring terms across the whole doc force cross-chunk
            // interning overlap; per-line terms force fresh ids.
            doc.push_str(&format!(
                "<http://e/s{}> <http://e/p{}> \"v{i}\"@en .\n",
                i % 97,
                i % 7
            ));
            if i % 13 == 0 {
                doc.push_str("# comment\n\n");
            }
        }
        doc
    }

    fn assert_identical(a: &Dataset, b: &Dataset) {
        assert_eq!(a.pool.len(), b.pool.len());
        for ((ia, ta), (ib, tb)) in a.pool.iter().zip(b.pool.iter()) {
            assert_eq!(ia, ib);
            assert_eq!(ta, tb);
        }
        assert_eq!(a.graph.triples_sorted(), b.graph.triples_sorted());
        assert_eq!(
            a.graph.subjects().collect::<Vec<_>>(),
            b.graph.subjects().collect::<Vec<_>>()
        );
        for (id, _) in a.pool.iter() {
            assert_eq!(a.graph.neighbourhood(id), b.graph.neighbourhood(id));
            assert_eq!(a.graph.incoming(id), b.graph.incoming(id));
        }
    }

    #[test]
    fn parallel_parse_is_byte_identical() {
        let doc = sample_doc(500);
        let seq = parse(&doc).unwrap();
        for jobs in [2, 3, 4, 7] {
            let par = parse_par_min_chunk(&doc, jobs, 1).unwrap();
            assert_identical(&seq, &par);
        }
    }

    #[test]
    fn parallel_parse_falls_back_sequential_below_threshold() {
        let doc = sample_doc(10);
        let seq = parse(&doc).unwrap();
        let par = parse_par(&doc, 8).unwrap(); // tiny doc: one chunk
        assert_identical(&seq, &par);
    }

    #[test]
    fn parallel_parse_reports_same_error_at_same_line() {
        let mut doc = sample_doc(200);
        doc.push_str("<http://e/bad> <http://e/p> .\n"); // missing object
        doc.push_str(&sample_doc(50));
        let seq_err = parse(&doc).unwrap_err();
        for jobs in [2, 4, 9] {
            let par_err = parse_par_min_chunk(&doc, jobs, 1).unwrap_err();
            assert_eq!(seq_err, par_err, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_parse_reports_earliest_error() {
        // Errors in two different chunks: the merge must surface the first.
        let mut doc = String::new();
        doc.push_str("<http://e/a> <http://e/p> <http://e/b> .\n");
        doc.push_str("broken line one\n");
        doc.push_str(&sample_doc(100));
        doc.push_str("broken line two\n");
        let seq_err = parse(&doc).unwrap_err();
        assert_eq!(seq_err.line, 2);
        let par_err = parse_par_min_chunk(&doc, 6, 1).unwrap_err();
        assert_eq!(seq_err, par_err);
    }

    #[test]
    fn parallel_parse_handles_crlf_and_no_trailing_newline() {
        let doc = sample_doc(120).replace('\n', "\r\n");
        let trimmed = doc.trim_end().to_string(); // no trailing newline
        let seq = parse(&trimmed).unwrap();
        let par = parse_par_min_chunk(&trimmed, 5, 1).unwrap();
        assert_identical(&seq, &par);
    }

    mod differential {
        use super::*;
        use crate::turtle;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// IRIs from a small universe, so terms and triples recur. Forms 1
        /// and 2 spell the same IRI escaped and raw.
        fn arb_iri() -> impl Strategy<Value = String> {
            (0u8..8, 0u8..5).prop_map(|(i, form)| match form {
                0 => format!("<http://e/n{i}>"),
                1 => format!("<http://e/\\u00E9{i}>"),
                2 => format!("<http://e/é{i}>"),
                3 => format!("<http://e/\\U0001F600{i}\\u0020x>"),
                _ => format!("<http://e/日本/{i}#frag>"),
            })
        }

        fn arb_blank() -> impl Strategy<Value = String> {
            (0u8..6, 0u8..4).prop_map(|(i, form)| match form {
                0 => format!("_:b{i}"),
                1 => format!("_:ü{i}"),
                2 => format!("_:x_-{i}"),
                _ => format!("_:日本{i}"),
            })
        }

        const FRAGMENTS: &[&str] = &[
            "a",
            "ü",
            "日本",
            " ",
            "x y",
            "\\t",
            "\\\"",
            "\\\\",
            "\\n",
            "\\u00E9",
            "\\U0001F600",
        ];

        fn arb_literal() -> impl Strategy<Value = String> {
            (proptest::collection::vec(0..FRAGMENTS.len(), 0..4), 0u8..8).prop_map(
                |(parts, suffix)| {
                    let lexical: String = parts.iter().map(|&i| FRAGMENTS[i]).collect();
                    let suffix = match suffix {
                        0 => "@en",
                        1 => "@EN-us",
                        2 => "@de-CH-1996",
                        3 => "^^<http://www.w3.org/2001/XMLSchema#integer>",
                        4 => "^^<http://www.w3.org/2001/XMLSchema#string>",
                        5 => "^^<http://e/dt\\u00E9>",
                        _ => "",
                    };
                    format!("\"{lexical}\"{suffix}")
                },
            )
        }

        fn arb_object() -> impl Strategy<Value = String> {
            prop_oneof![arb_iri(), arb_blank(), arb_literal(), arb_literal()]
        }

        fn arb_subject() -> impl Strategy<Value = String> {
            prop_oneof![arb_iri(), arb_iri(), arb_blank()]
        }

        fn arb_triple_line() -> impl Strategy<Value = String> {
            (arb_subject(), arb_iri(), arb_object(), 0u8..4).prop_map(|(s, p, o, layout)| {
                match layout {
                    0 => format!("{s} {p} {o} ."),
                    1 => format!("{s}\t{p}\t{o}\t."),
                    2 => format!("  {s}  {p} {o}. # trailing é"),
                    _ => format!("{s} {p} {o} .#"),
                }
            })
        }

        fn arb_line() -> impl Strategy<Value = String> {
            prop_oneof![
                arb_triple_line(),
                arb_triple_line(),
                arb_triple_line(),
                Just(String::new()),
                Just("# comment ü".to_string()),
                Just(" \t ".to_string()),
            ]
        }

        /// A document in the common N-Triples/Turtle subset: LF or CRLF
        /// per line, optional final newline, and its first lines repeated
        /// at the end so duplicate triples occur for sure.
        fn arb_doc() -> impl Strategy<Value = String> {
            (
                proptest::collection::vec((arb_line(), any::<bool>()), 0..60),
                0usize..5,
                any::<bool>(),
            )
                .prop_map(|(lines, repeat, trailing)| {
                    let repeated: Vec<_> = lines.iter().take(repeat).cloned().collect();
                    let mut doc = String::new();
                    for (i, (line, crlf)) in lines.iter().chain(&repeated).enumerate() {
                        if i > 0 {
                            doc.push_str(if *crlf { "\r\n" } else { "\n" });
                        }
                        doc.push_str(line);
                    }
                    if trailing {
                        doc.push('\n');
                    }
                    doc
                })
        }

        type TermTriple = (Term, Term, Term);

        fn contents(ds: &Dataset) -> (BTreeSet<Term>, BTreeSet<TermTriple>) {
            let terms = ds.pool.iter().map(|(_, t)| t.clone()).collect();
            let triples = ds
                .graph
                .triples()
                .map(|t| {
                    (
                        ds.pool.term(t.subject).clone(),
                        ds.pool.term(t.predicate).clone(),
                        ds.pool.term(t.object).clone(),
                    )
                })
                .collect();
            (terms, triples)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The byte scanner agrees with the Turtle parser on the
            /// shared subset (escaped and raw spellings intern to one
            /// term, tags are lowercased, duplicates collapse), and the
            /// chunked parse is byte-identical to the sequential one with
            /// seams landing on escapes and multibyte chars.
            #[test]
            fn ntriples_matches_turtle_and_chunks(doc in arb_doc()) {
                let nt = parse(&doc).expect("generated docs are valid N-Triples");
                let ttl = turtle::parse(&doc).expect("generated docs are valid Turtle");
                prop_assert_eq!(contents(&nt), contents(&ttl));
                for jobs in 2..=7 {
                    assert_identical(&nt, &parse_par_min_chunk(&doc, jobs, 1).unwrap());
                }
            }
        }
    }
}
