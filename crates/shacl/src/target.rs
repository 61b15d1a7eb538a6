//! Target selection: from target declarations to `(shape, focus)` pairs.
//!
//! SHACL's four explicit target kinds plus the implicit class target all
//! reduce to picking focus nodes out of the data graph. Selection is
//! deterministic: pairs are sorted by (shape index, focus term id) and
//! deduplicated, so reports are byte-stable across runs and between the
//! CLI and the server.

use std::collections::HashMap;

use shapex_rdf::graph::Dataset;
use shapex_rdf::pool::TermId;
use shapex_rdf::vocab::{rdf, rdfs};

use crate::compile::ShaclSchema;
use crate::model::TargetDecl;

/// Selects every `(shape index, focus node)` pair the schema targets in
/// `ds`. `sh:targetNode` terms are interned into the data pool (a node
/// can be targeted without occurring in the data; it then has an empty
/// neighbourhood).
pub(crate) fn select_targets(schema: &ShaclSchema, ds: &mut Dataset) -> Vec<(usize, TermId)> {
    // Index rdf:type and rdfs:subClassOf once; class targets walk the
    // subclass closure *in the data graph* (SHACL instance semantics).
    let type_id = ds.iri(rdf::TYPE);
    let sub_id = ds.iri(rdfs::SUB_CLASS_OF);
    let mut instances: HashMap<TermId, Vec<TermId>> = HashMap::new();
    let mut subs: HashMap<TermId, Vec<TermId>> = HashMap::new();
    if schema
        .shapes
        .iter()
        .any(|s| s.targets.iter().any(|t| matches!(t, TargetDecl::Class(_))))
    {
        for s in ds.graph.subjects().collect::<Vec<_>>() {
            for &(p, o) in ds.graph.neighbourhood(s) {
                if Some(p) == type_id {
                    instances.entry(o).or_default().push(s);
                } else if Some(p) == sub_id {
                    subs.entry(o).or_default().push(s);
                }
            }
        }
    }

    let mut pairs: Vec<(usize, TermId)> = Vec::new();
    for (idx, shape) in schema.shapes.iter().enumerate() {
        if shape.deactivated {
            continue;
        }
        for target in &shape.targets {
            match target {
                TargetDecl::Node(t) => {
                    let id = ds.pool.intern(t.clone());
                    pairs.push((idx, id));
                }
                TargetDecl::Class(c) => {
                    let Some(root) = ds.iri(c) else {
                        continue; // class unknown to the data: no instances
                    };
                    // Reverse BFS over rdfs:subClassOf: root and all its
                    // (transitive) subclasses contribute their instances.
                    let mut stack = vec![root];
                    let mut seen = vec![root];
                    while let Some(cls) = stack.pop() {
                        for focus in instances.get(&cls).into_iter().flatten() {
                            pairs.push((idx, *focus));
                        }
                        for sub in subs.get(&cls).into_iter().flatten() {
                            if !seen.contains(sub) {
                                seen.push(*sub);
                                stack.push(*sub);
                            }
                        }
                    }
                }
                TargetDecl::SubjectsOf(p) => {
                    let Some(pid) = ds.iri(p) else {
                        continue;
                    };
                    for s in ds.graph.subjects().collect::<Vec<_>>() {
                        if ds.graph.neighbourhood(s).iter().any(|&(pp, _)| pp == pid) {
                            pairs.push((idx, s));
                        }
                    }
                }
                TargetDecl::ObjectsOf(p) => {
                    let Some(pid) = ds.iri(p) else {
                        continue;
                    };
                    for s in ds.graph.subjects().collect::<Vec<_>>() {
                        for &(pp, o) in ds.graph.neighbourhood(s) {
                            if pp == pid {
                                pairs.push((idx, o));
                            }
                        }
                    }
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use shapex_rdf::turtle;

    const SHAPES: &str = "@prefix sh: <http://www.w3.org/ns/shacl#> .\n\
                          @prefix ex: <http://example.org/> .\n\
                          ex:S a sh:NodeShape ;\n\
                            sh:targetClass ex:Agent ;\n\
                            sh:targetNode ex:orphan ;\n\
                            sh:targetSubjectsOf ex:knows ;\n\
                            sh:targetObjectsOf ex:knows ;\n\
                            sh:property [ sh:path ex:name ; sh:minCount 1 ] .";

    #[test]
    fn all_four_target_kinds_and_subclass_closure() {
        let shapes = turtle::parse(SHAPES).unwrap();
        let schema = compile(&shapes).unwrap();
        let mut data = turtle::parse(
            "@prefix ex: <http://example.org/> .\n\
             @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
             ex:Person rdfs:subClassOf ex:Agent .\n\
             ex:alice a ex:Person ; ex:knows ex:bob .\n\
             ex:carol a ex:Agent .",
        )
        .unwrap();
        let targets = select_targets(&schema, &mut data);
        let names: Vec<String> = targets
            .iter()
            .map(|&(_, f)| data.pool.term(f).to_string())
            .collect();
        // alice (class via subclass + subjectsOf), bob (objectsOf),
        // carol (class), orphan (targetNode, interned fresh).
        for expected in [
            "<http://example.org/alice>",
            "<http://example.org/bob>",
            "<http://example.org/carol>",
            "<http://example.org/orphan>",
        ] {
            assert!(
                names.contains(&expected.to_string()),
                "{expected} in {names:?}"
            );
        }
        assert_eq!(targets.len(), 4, "dedup across target kinds: {names:?}");
    }
}
