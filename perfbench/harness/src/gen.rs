//! Seeded workload generation: the batch dump, the resident-service entry,
//! the ground truth for both, and the traffic model the client replays.
//!
//! Everything here is a pure function of `(workload, size, seed)`, so the
//! generator, the HTTP client and the traced run each rebuild the same
//! bytes independently instead of passing model files around.

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shapex_workloads::scale::{self, TAXON, UNIPROT, UP};

const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
const RDFS_SEE_ALSO: &str = "http://www.w3.org/2000/01/rdf-schema#seeAlso";
const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
/// Cross-reference record namespace of the `xref-recursive` graph.
pub const XREF: &str = "http://purl.uniprot.org/xref/";
/// Gene Ontology term namespace: `rdfs:seeAlso` objects that are never
/// subjects, matched by the IRI-stem arc that overlaps the `@<Xref>` arc.
pub const GO: &str = "http://purl.obolibrary.org/obo/GO_";
/// The one proteome hub of the `xref-recursive` graph.
pub const PROTEOME: &str = "http://purl.uniprot.org/proteomes/UP000005640";

const AMINO: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";
const SPECIES: &[&str] = &["HUMAN", "MOUSE", "YEAST", "ECOLI", "DROME", "ARATH", "RAT"];
const DATABASES: &[&str] = &["EMBL", "PDB", "RefSeq"];
const TAXA: usize = 50;
/// GO ids the generator draws from; delta additions use ids above it, so
/// an added triple is never already present.
const GO_IDS: u32 = 1_000_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// UniProt-shaped dump from `shapex_workloads::scale`, SORBE-only schema.
    Uniprot1m,
    /// UniProt variant with references, a hub and ~20% failing proteins,
    /// whose main shapes need the derivative engine.
    XrefRecursive,
}

impl Workload {
    pub fn from_name(name: &str) -> Result<Workload, String> {
        match name {
            "uniprot-1m" => Ok(Workload::Uniprot1m),
            "xref-recursive" => Ok(Workload::XrefRecursive),
            other => Err(format!("unknown workload '{other}'")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Uniprot1m => "uniprot-1m",
            Workload::XrefRecursive => "xref-recursive",
        }
    }

    /// Protein counts of the batch dump and of the resident entry. The
    /// `uniprot-1m` dump is one million triples; each entry is sized so a
    /// `/delta`, which renders two full typing reports of the entry, costs
    /// about 60 ms. `smoke` shrinks both for the benchmark's own tests.
    pub fn sizes(self, smoke: bool) -> (usize, usize) {
        match (self, smoke) {
            (Workload::Uniprot1m, false) => (142_858, 8_000),
            (Workload::XrefRecursive, false) => (10_000, 300),
            (Workload::Uniprot1m, true) => (2_000, 400),
            (Workload::XrefRecursive, true) => (600, 100),
        }
    }

    pub fn schema(self) -> String {
        match self {
            Workload::Uniprot1m => scale::uniprot_schema(),
            Workload::XrefRecursive => xref_schema(),
        }
    }

    /// Generates one graph of `proteins` proteins.
    pub fn graph(self, proteins: usize, seed: u64) -> Graph {
        match self {
            Workload::Uniprot1m => uniprot_graph(proteins, seed),
            Workload::XrefRecursive => xref_graph(proteins, seed),
        }
    }
}

/// A subject of a generated graph and the one shape it conforms to, if any.
pub struct Subject {
    /// The node as the report prints it, `<iri>`.
    pub node: String,
    /// The shape it conforms to; it fails every other shape.
    pub conforms_to: Option<&'static str>,
}

/// A generated graph with its ground truth.
pub struct Graph {
    pub nt: String,
    pub triples: usize,
    /// Every subject, in generation order.
    pub subjects: Vec<Subject>,
    /// Indices into `subjects` of the proteins, in generation order.
    pub proteins: Vec<usize>,
    /// Shape labels of the schema, in declaration order.
    pub shapes: Vec<&'static str>,
}

impl Graph {
    /// Ground truth as `node\tshape\tverdict` lines, one per
    /// `(subject, shape)` pair, sorted — exactly the rows a full-typing
    /// report must hold.
    pub fn truth_tsv(&self) -> String {
        let mut rows: Vec<String> = Vec::with_capacity(self.subjects.len() * self.shapes.len());
        for s in &self.subjects {
            for &shape in &self.shapes {
                let verdict = if s.conforms_to == Some(shape) {
                    "conforms"
                } else {
                    "fails"
                };
                rows.push(format!("{}\t{shape}\t{verdict}", s.node));
            }
        }
        rows.sort_unstable();
        let mut out = rows.join("\n");
        out.push('\n');
        out
    }
}

fn uniprot_graph(proteins: usize, seed: u64) -> Graph {
    let nt = scale::uniprot_ntriples(proteins, seed);
    let triples = nt.lines().count();
    Graph {
        nt,
        triples,
        subjects: (0..proteins)
            .map(|i| Subject {
                node: format!("<{UNIPROT}P{i:08}>"),
                conforms_to: Some("Protein"),
            })
            .collect(),
        proteins: (0..proteins).collect(),
        shapes: vec!["Protein"],
    }
}

/// The `xref-recursive` schema. `<Protein>` is off the SORBE path twice
/// over: the sequence/fragment alternation, and two `rdfs:seeAlso` arcs
/// with overlapping heads and different value sets. `<Xref>` and `<Taxon>`
/// stay SORBE; `<Proteome>` references every protein.
pub fn xref_schema() -> String {
    format!(
        "PREFIX up: <{UP}>\n\
         PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n\
         PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n\
         PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
         <Protein> {{\n\
         \x20 rdf:type [up:Protein],\n\
         \x20 up:reviewed xsd:boolean,\n\
         \x20 up:mnemonic xsd:string,\n\
         \x20 up:organism @<Taxon>,\n\
         \x20 ( up:sequence xsd:string | up:fragment xsd:string ),\n\
         \x20 rdfs:seeAlso @<Xref>{{1,3}},\n\
         \x20 rdfs:seeAlso [<{GO}>~]*\n\
         }}\n\
         <Xref> {{\n\
         \x20 rdf:type [up:Xref],\n\
         \x20 up:database [\"EMBL\" \"PDB\" \"RefSeq\"],\n\
         \x20 up:accession xsd:string\n\
         }}\n\
         <Taxon> {{\n\
         \x20 rdf:type [up:Taxon],\n\
         \x20 up:scientificName xsd:string\n\
         }}\n\
         <Proteome> {{\n\
         \x20 rdf:type [up:Proteome],\n\
         \x20 up:member @<Protein>*\n\
         }}\n"
    )
}

/// How a failing `xref-recursive` protein breaks its shape.
#[derive(Clone, Copy)]
enum Defect {
    MissingMnemonic,
    WrongDatatype,
    ExtraPredicate,
    BadXref,
    SequenceAndFragment,
}

const DEFECTS: [Defect; 5] = [
    Defect::MissingMnemonic,
    Defect::WrongDatatype,
    Defect::ExtraPredicate,
    Defect::BadXref,
    Defect::SequenceAndFragment,
];

fn amino(rng: &mut StdRng, out: &mut String) {
    for _ in 0..rng.gen_range(12..32usize) {
        out.push(AMINO[rng.gen_range(0..AMINO.len())] as char);
    }
}

fn xref_graph(proteins: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0fc0_ffee);
    let mut out = String::with_capacity(proteins * 900 + 4096);
    let mut subjects = Vec::with_capacity(proteins * 3 + TAXA + 1);
    let mut protein_idx = Vec::with_capacity(proteins);
    let mut all_valid = true;

    for t in 1..=TAXA {
        let _ = writeln!(out, "<{TAXON}{t}> <{RDF_TYPE}> <{UP}Taxon> .");
        let _ = writeln!(out, "<{TAXON}{t}> <{UP}scientificName> \"Species {t}\" .");
        subjects.push(Subject {
            node: format!("<{TAXON}{t}>"),
            conforms_to: Some("Taxon"),
        });
    }
    for i in 0..proteins {
        let p = format!("<{UNIPROT}P{i:08}>");
        let defect = rng
            .gen_bool(0.2)
            .then(|| DEFECTS[rng.gen_range(0..DEFECTS.len())]);
        let species = SPECIES[rng.gen_range(0..SPECIES.len())];
        let _ = writeln!(out, "{p} <{RDF_TYPE}> <{UP}Protein> .");
        if matches!(defect, Some(Defect::WrongDatatype)) {
            let _ = writeln!(out, "{p} <{UP}reviewed> \"yes\" .");
        } else {
            let reviewed = rng.gen_bool(0.3);
            let _ = writeln!(out, "{p} <{UP}reviewed> \"{reviewed}\"^^<{XSD_BOOLEAN}> .");
        }
        if !matches!(defect, Some(Defect::MissingMnemonic)) {
            let _ = writeln!(out, "{p} <{UP}mnemonic> \"G{i:X}_{species}\" .");
        }
        let taxon = rng.gen_range(1..=TAXA);
        let _ = writeln!(out, "{p} <{UP}organism> <{TAXON}{taxon}> .");
        let fragment = rng.gen_bool(0.2);
        if !fragment || matches!(defect, Some(Defect::SequenceAndFragment)) {
            let _ = write!(out, "{p} <{UP}sequence> \"");
            amino(&mut rng, &mut out);
            out.push_str("\" .\n");
        }
        if fragment || matches!(defect, Some(Defect::SequenceAndFragment)) {
            let _ = write!(out, "{p} <{UP}fragment> \"");
            amino(&mut rng, &mut out);
            out.push_str("\" .\n");
        }
        if matches!(defect, Some(Defect::ExtraPredicate)) {
            let _ = writeln!(out, "{p} <{UP}comment> \"unreviewed annotation\" .");
        }
        let refs = rng.gen_range(1..4usize);
        let bad_ref = matches!(defect, Some(Defect::BadXref)).then(|| rng.gen_range(0..refs));
        for r in 0..refs {
            let x = format!("<{XREF}X{i:08}.{r}>");
            let _ = writeln!(out, "{p} <{RDFS_SEE_ALSO}> {x} .");
            let _ = writeln!(out, "{x} <{RDF_TYPE}> <{UP}Xref> .");
            let db = if bad_ref == Some(r) {
                "UNKNOWN"
            } else {
                DATABASES[rng.gen_range(0..DATABASES.len())]
            };
            let _ = writeln!(out, "{x} <{UP}database> \"{db}\" .");
            let _ = writeln!(out, "{x} <{UP}accession> \"A{i:X}R{r}\" .");
            subjects.push(Subject {
                node: x,
                conforms_to: (bad_ref != Some(r)).then_some("Xref"),
            });
        }
        for _ in 0..rng.gen_range(0..3usize) {
            let go = rng.gen_range(0..GO_IDS);
            let _ = writeln!(out, "{p} <{RDFS_SEE_ALSO}> <{GO}{go:07}> .");
        }
        all_valid &= defect.is_none();
        protein_idx.push(subjects.len());
        subjects.push(Subject {
            node: p,
            conforms_to: defect.is_none().then_some("Protein"),
        });
    }
    let hub = format!("<{PROTEOME}>");
    let _ = writeln!(out, "{hub} <{RDF_TYPE}> <{UP}Proteome> .");
    for i in 0..proteins {
        let _ = writeln!(out, "{hub} <{UP}member> <{UNIPROT}P{i:08}> .");
    }
    subjects.push(Subject {
        node: hub,
        conforms_to: all_valid.then_some("Proteome"),
    });
    let triples = out.lines().count();
    Graph {
        nt: out,
        triples,
        subjects,
        proteins: protein_idx,
        shapes: vec!["Protein", "Xref", "Taxon", "Proteome"],
    }
}

/// Draws a uniform `f64` in `[0, 1)`.
pub fn unit(rng: &mut StdRng) -> f64 {
    rng.gen_range(0..1u64 << 53) as f64 / (1u64 << 53) as f64
}

/// One `/delta` body and the verdict its protein must have afterwards.
pub struct DeltaReq {
    pub body: String,
    /// The touched protein, as the report prints it.
    pub node: String,
    pub conforms_after: bool,
}

/// One `/map` body of shape-map associations; every row must come back
/// `as_expected: true`.
pub struct MapReq {
    pub body: String,
}

/// A request of the service mix.
pub enum Req {
    Map(MapReq),
    Delta(DeltaReq),
}

/// Shape-map associations per `/map` request.
pub const MAP_NODES: usize = 10;
/// Share of `/delta` requests in the mix.
pub const DELTA_SHARE: f64 = 0.15;
/// Zipf exponent of the node popularity of `/map` requests.
const ZIPF_S: f64 = 1.1;
/// Proteins reserved for `/delta` writes; `/map` never names them, so a
/// read's expected verdict never depends on an in-flight write.
const DELTA_POOL: usize = 64;

/// The traffic model over a resident entry: which proteins reads name
/// (Zipf-skewed), which ones writes perturb, and the breakable triples of
/// each written protein.
pub struct Traffic {
    /// `(node, conforms)` of the read pool, most popular first.
    map_pool: Vec<(String, bool)>,
    /// Cumulative Zipf weights over `map_pool`.
    zipf_cdf: Vec<f64>,
    /// Conforming proteins writes break and later repair.
    delta_pool: Vec<Breakable>,
    rng: StdRng,
    next_write: usize,
    /// The write awaiting its revert, if any.
    pending_revert: Option<DeltaReq>,
}

struct Breakable {
    node: String,
    mnemonic: String,
    reviewed: String,
}

impl Traffic {
    /// Builds the model from the entry graph. Proteins of the write pool
    /// are taken from conforming proteins spread over the whole graph.
    pub fn new(graph: &Graph, seed: u64) -> Traffic {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x007a_ff1c);
        let conforming: Vec<usize> = graph
            .proteins
            .iter()
            .copied()
            .filter(|&i| graph.subjects[i].conforms_to.is_some())
            .collect();
        let stride = (conforming.len() / DELTA_POOL).max(1);
        let write_set: Vec<usize> = conforming
            .iter()
            .step_by(stride)
            .take(DELTA_POOL)
            .copied()
            .collect();
        let mut delta_pool: Vec<Breakable> = write_set
            .iter()
            .map(|&i| Breakable {
                node: graph.subjects[i].node.clone(),
                mnemonic: String::new(),
                reviewed: String::new(),
            })
            .collect();
        // Recover the breakable objects from the generated lines.
        let index: std::collections::HashMap<String, usize> = delta_pool
            .iter()
            .enumerate()
            .map(|(k, b)| (b.node.clone(), k))
            .collect();
        let mnemonic = format!(" <{UP}mnemonic> ");
        let reviewed = format!(" <{UP}reviewed> ");
        for line in graph.nt.lines() {
            let Some((subject, rest)) = line.split_once(' ') else {
                continue;
            };
            let Some(&k) = index.get(subject) else {
                continue;
            };
            let rest = format!(" {rest}");
            let object = |pred: &str| {
                rest.strip_prefix(pred)
                    .map(|o| o.trim_end_matches(" .").to_string())
            };
            if let Some(o) = object(&mnemonic) {
                delta_pool[k].mnemonic = o;
            } else if let Some(o) = object(&reviewed) {
                delta_pool[k].reviewed = o;
            }
        }
        assert!(
            delta_pool
                .iter()
                .all(|b| !b.mnemonic.is_empty() && !b.reviewed.is_empty()),
            "every write-pool protein conforms, so it has a mnemonic and a reviewed flag"
        );

        let mut map_pool: Vec<(String, bool)> = graph
            .proteins
            .iter()
            .filter(|&&i| !write_set.contains(&i))
            .map(|&i| {
                (
                    graph.subjects[i].node.clone(),
                    graph.subjects[i].conforms_to.is_some(),
                )
            })
            .collect();
        // Popularity rank is a seeded shuffle, not generation order.
        for i in (1..map_pool.len()).rev() {
            map_pool.swap(i, rng.gen_range(0..=i));
        }
        let mut acc = 0.0;
        let zipf_cdf = (0..map_pool.len())
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        Traffic {
            map_pool,
            zipf_cdf,
            delta_pool,
            rng,
            next_write: 0,
            pending_revert: None,
        }
    }

    fn zipf(&mut self) -> usize {
        let total = *self.zipf_cdf.last().expect("non-empty read pool");
        let x = unit(&mut self.rng) * total;
        self.zipf_cdf
            .partition_point(|&c| c <= x)
            .min(self.map_pool.len() - 1)
    }

    /// The next request of the mix: a `/delta` with probability
    /// [`DELTA_SHARE`], else a `/map`. Writes alternate between breaking a
    /// protein and reverting that break, so the graph stays bounded.
    pub fn next(&mut self) -> Req {
        if unit(&mut self.rng) < DELTA_SHARE {
            return Req::Delta(self.next_delta());
        }
        let mut body = String::new();
        for _ in 0..MAP_NODES {
            let r = self.zipf();
            let (node, conforms) = &self.map_pool[r];
            let bang = if *conforms { "" } else { "!" };
            let _ = writeln!(body, "{node}@{bang}<Protein>");
        }
        Req::Map(MapReq { body })
    }

    /// The traffic of round `round` of a run: round 0 warms the server up,
    /// round 1 is the first timed segment.
    pub fn for_round(graph: &Graph, seed: u64, round: u64) -> Traffic {
        Traffic::new(graph, seed.wrapping_mul(1000).wrapping_add(round))
    }

    /// Takes the revert of a break whose revert is not scheduled yet.
    pub fn flush(&mut self) -> Option<Req> {
        self.pending_revert.take().map(Req::Delta)
    }

    fn next_delta(&mut self) -> DeltaReq {
        if let Some(revert) = self.pending_revert.take() {
            return revert;
        }
        let b = &self.delta_pool[self.next_write % self.delta_pool.len()];
        self.next_write += 1;
        // Mutations: (breaks the shape, apply lines, revert lines). They
        // carry 1, 1, 2 and 1 triples.
        let go = GO_IDS + self.next_write as u32;
        let node = &b.node;
        let muts: [(bool, String, String); 4] = [
            (
                true,
                format!("- {node} <{UP}mnemonic> {} .\n", b.mnemonic),
                format!("+ {node} <{UP}mnemonic> {} .\n", b.mnemonic),
            ),
            (
                true,
                format!("+ {node} <{UP}comment> \"flagged\" .\n"),
                format!("- {node} <{UP}comment> \"flagged\" .\n"),
            ),
            (
                true,
                format!(
                    "- {node} <{UP}reviewed> {} .\n+ {node} <{UP}reviewed> \"yes\" .\n",
                    b.reviewed
                ),
                format!(
                    "- {node} <{UP}reviewed> \"yes\" .\n+ {node} <{UP}reviewed> {} .\n",
                    b.reviewed
                ),
            ),
            (
                false,
                format!("+ {node} <{RDFS_SEE_ALSO}> <{GO}{go:07}> .\n"),
                format!("- {node} <{RDFS_SEE_ALSO}> <{GO}{go:07}> .\n"),
            ),
        ];
        // Any non-empty subset but all four (5 triples): 1 to 4 triples.
        let mask = self.rng.gen_range(1..15u32);
        let (mut apply, mut revert, mut breaks) = (String::new(), String::new(), false);
        for (k, (brk, a, r)) in muts.iter().enumerate() {
            if mask & (1 << k) != 0 {
                apply.push_str(a);
                revert.push_str(r);
                breaks |= brk;
            }
        }
        self.pending_revert = Some(DeltaReq {
            body: revert,
            node: node.clone(),
            conforms_after: true,
        });
        DeltaReq {
            body: apply,
            node: node.clone(),
            conforms_after: !breaks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in [Workload::Uniprot1m, Workload::XrefRecursive] {
            let a = w.graph(300, 7);
            let b = w.graph(300, 7);
            let c = w.graph(300, 8);
            assert_eq!(a.nt, b.nt, "{}", w.name());
            assert_eq!(a.truth_tsv(), b.truth_tsv(), "{}", w.name());
            assert_ne!(a.nt, c.nt, "{}", w.name());
        }
    }

    #[test]
    fn traffic_is_seeded() {
        let g = Workload::XrefRecursive.graph(400, 3);
        let bodies = |seed| {
            let mut t = Traffic::new(&g, seed);
            (0..200)
                .map(|_| match t.next() {
                    Req::Map(m) => m.body,
                    Req::Delta(d) => d.body,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(bodies(1), bodies(1));
        assert_ne!(bodies(1), bodies(2));
    }

    #[test]
    fn xref_graph_fails_about_a_fifth() {
        let g = Workload::XrefRecursive.graph(2_000, 11);
        let failing = g
            .proteins
            .iter()
            .filter(|&&i| g.subjects[i].conforms_to.is_none())
            .count();
        assert!((300..=500).contains(&failing), "{failing} of 2000 fail");
    }
}
