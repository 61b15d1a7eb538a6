//! Term interning.
//!
//! Validation touches the same IRIs and literals over and over; interning
//! them to dense `u32` ids makes triples 12 bytes, makes term equality an
//! integer compare, and lets downstream code use ids as indexes into dense
//! side tables (the derivative engine's memo tables rely on this).
//!
//! ## Storage
//!
//! Each term is stored once, in the id-ordered `terms` vector. The index
//! holds no keys of its own: it maps a 64-bit content hash of the term to
//! the newest id with that hash, and a parallel `next` vector chains older
//! ids sharing the hash (genuine collisions; the chain is almost always one
//! long). Lookups hash a borrowed [`TermRef`] and compare it against the
//! stored terms, so a parser interning a term it has already seen pays a
//! hash and a compare and allocates nothing; only a new term is copied,
//! once, into `terms`.

use std::hash::Hasher;

use rustc_hash::{FxHashMap, FxHasher};

use crate::term::{Literal, Term, TermRef};

/// A dense id for an interned [`Term`]. Ids are only meaningful relative to
/// the [`TermPool`] that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    /// The raw index, usable for dense side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Ends a `next` chain.
const NONE: u32 = u32::MAX;

/// An interner mapping [`Term`]s to dense [`TermId`]s and back.
///
/// One pool is shared between a graph and everything that needs to talk
/// about its nodes (schemas compiled for validation, query engines, ...).
#[derive(Debug, Default)]
pub struct TermPool {
    /// Id `i`'s term is `terms[i]`: the only copy.
    terms: Vec<Term>,
    /// Content hash → newest id with that hash.
    heads: FxHashMap<u64, u32>,
    /// Id → next older id with the same content hash, or [`NONE`].
    next: Vec<u32>,
}

/// The content hash the index is keyed by. The kind tag and the field
/// separators keep apart terms whose strings concatenate to the same
/// bytes, so such terms do not share a chain.
fn content_hash(term: TermRef<'_>) -> u64 {
    let mut h = FxHasher::default();
    match term {
        TermRef::Iri(iri) => {
            h.write_u8(0);
            h.write(iri.as_bytes());
        }
        TermRef::BlankNode(label) => {
            h.write_u8(1);
            h.write(label.as_bytes());
        }
        TermRef::Literal {
            lexical,
            datatype,
            lang,
        } => {
            h.write_u8(2);
            h.write(lexical.as_bytes());
            h.write_u8(0xff);
            h.write(datatype.as_bytes());
            if let Some(lang) = lang {
                h.write_u8(0xff);
                h.write(lang.as_bytes());
            }
        }
    }
    // FxHash leaves the low bits, which pick the table bucket, depending on
    // little more than the last word; a murmur3 finalizer spreads them.
    let mut x = h.finish();
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        TermPool::default()
    }

    /// The id of `term` given its content hash, if interned.
    fn find(&self, hash: u64, term: TermRef<'_>) -> Option<TermId> {
        let mut id = *self.heads.get(&hash)?;
        while id != NONE {
            if TermRef::from(&self.terms[id as usize]) == term {
                return Some(TermId(id));
            }
            id = self.next[id as usize];
        }
        None
    }

    /// Appends a term known to be absent.
    fn push(&mut self, hash: u64, term: Term) -> TermId {
        let id = u32::try_from(self.terms.len())
            .ok()
            .filter(|&id| id != NONE)
            .expect("term pool overflow");
        self.terms.push(term);
        self.next.push(self.heads.insert(hash, id).unwrap_or(NONE));
        TermId(id)
    }

    /// Interns a term, returning its id. Idempotent; the term is moved
    /// into the pool when new and dropped when already present.
    pub fn intern(&mut self, term: Term) -> TermId {
        let hash = content_hash(TermRef::from(&term));
        match self.find(hash, TermRef::from(&term)) {
            Some(id) => id,
            None => self.push(hash, term),
        }
    }

    /// Interns a borrowed term, copying it only when it is new.
    pub fn intern_ref(&mut self, term: TermRef<'_>) -> TermId {
        let hash = content_hash(term);
        match self.find(hash, term) {
            Some(id) => id,
            None => self.push(hash, term.to_term()),
        }
    }

    /// Interns an IRI given as a string.
    pub fn intern_iri(&mut self, iri: &str) -> TermId {
        self.intern_ref(TermRef::Iri(iri))
    }

    /// Interns a blank node given its label.
    pub fn intern_blank(&mut self, label: &str) -> TermId {
        self.intern_ref(TermRef::BlankNode(label))
    }

    /// Interns a literal.
    pub fn intern_literal(&mut self, lit: Literal) -> TermId {
        self.intern(Term::Literal(lit))
    }

    /// Looks up an already-interned term without interning it.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        self.get_ref(TermRef::from(term))
    }

    /// [`TermPool::get`] for a borrowed term: no allocation.
    pub fn get_ref(&self, term: TermRef<'_>) -> Option<TermId> {
        self.find(content_hash(term), term)
    }

    /// Resolves an id back to its term.
    ///
    /// # Panics
    /// Panics if the id comes from a different pool (index out of range).
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Pre-sizes the interner for `additional` more terms.
    pub fn reserve(&mut self, additional: usize) {
        self.terms.reserve(additional);
        self.heads.reserve(additional);
        self.next.reserve(additional);
    }

    /// Iterates over all `(id, term)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }

    /// Consumes the pool, yielding its terms in interning order — id `i`'s
    /// term is element `i`. The parallel parser's merge phase moves
    /// chunk-local terms into the shared pool through this, so no term is
    /// ever cloned.
    pub fn into_terms(self) -> Vec<Term> {
        self.terms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;

    #[test]
    fn intern_is_idempotent() {
        let mut pool = TermPool::new();
        let a = pool.intern_iri("http://e/a");
        let b = pool.intern_iri("http://e/a");
        assert_eq!(a, b);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let mut pool = TermPool::new();
        let a = pool.intern_iri("http://e/a");
        let b = pool.intern_iri("http://e/b");
        let c = pool.intern_blank("a");
        let d = pool.intern_literal(Literal::string("a"));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(c, d);
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn same_lexical_different_kind_are_distinct() {
        let mut pool = TermPool::new();
        let iri = pool.intern_iri("x");
        let blank = pool.intern_blank("x");
        let lit = pool.intern_literal(Literal::string("x"));
        assert_ne!(iri, blank);
        assert_ne!(blank, lit);
    }

    #[test]
    fn literal_datatype_distinguishes() {
        let mut pool = TermPool::new();
        let s = pool.intern_literal(Literal::string("1"));
        let i = pool.intern_literal(Literal::integer(1));
        assert_ne!(s, i);
    }

    #[test]
    fn roundtrip_term_lookup() {
        let mut pool = TermPool::new();
        let t = Term::iri("http://e/a");
        let id = pool.intern(t.clone());
        assert_eq!(pool.term(id), &t);
        assert_eq!(pool.get(&t), Some(id));
        assert_eq!(pool.get(&Term::iri("http://e/zzz")), None);
    }

    #[test]
    fn borrowed_and_owned_keys_agree() {
        let mut pool = TermPool::new();
        let lit = Literal::lang_string("Hallo", "de");
        let a = pool.intern_ref(TermRef::Literal {
            lexical: "Hallo",
            datatype: crate::vocab::rdf::LANG_STRING,
            lang: Some("de"),
        });
        assert_eq!(pool.intern_literal(lit.clone()), a);
        assert_eq!(pool.get(&Term::Literal(lit)), Some(a));
        assert_eq!(pool.get_ref(TermRef::Iri("Hallo")), None);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn hash_collisions_chain() {
        // Force every term into one hash bucket: lookups must still
        // compare contents and keep ids distinct and stable.
        let mut pool = TermPool::new();
        let terms: Vec<Term> = (0..5).map(|i| Term::iri(format!("http://e/{i}"))).collect();
        let ids: Vec<TermId> = terms.iter().map(|t| pool.push(7, t.clone())).collect();
        for (t, &id) in terms.iter().zip(&ids) {
            assert_eq!(pool.find(7, TermRef::from(t)), Some(id));
            assert_eq!(pool.term(id), t);
        }
        assert_eq!(pool.find(7, TermRef::Iri("http://e/5")), None);
    }

    #[test]
    fn iter_yields_in_interning_order() {
        let mut pool = TermPool::new();
        pool.intern_iri("http://e/1");
        pool.intern_iri("http://e/2");
        let terms: Vec<_> = pool.iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(terms[0], Term::iri("http://e/1"));
        assert_eq!(terms[1], Term::iri("http://e/2"));
    }
}
