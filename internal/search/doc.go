// Package search provides the query-table discovery operations the
// dataset search systems discussed in the paper (§2, §5–§6) expose —
// Auctus, Toronto Open Data Search, JOSIE — in two tiers.
//
// The exact tier is the original scanner: given a query table — not
// necessarily part of the corpus — find the columns it can join with,
// ranked top-k by exact value overlap (JOSIE's semantics, the ground
// truth behind the §5 joinability study), and the tables it can union
// with (§4). An inverted index over distinct column values answers
// those queries without rescanning the corpus.
//
// The ranked tier (RankTables) turns the scanner into a retrieval
// engine: it scores whole candidate tables against the query table
// and returns a ranked Hypothesis list, blending value evidence
// (containment and Jaccard of the best joinable column pair, weighted
// by how informative the column's type group is — the paper's §5
// observation that incremental-integer overlap is meaningless while
// categorical overlap is strong evidence), schema-name similarity
// (internal/normalize), type compatibility, union compatibility over
// normalized schema keys, and dataset-metadata affinity. Weights live
// in DefaultHypothesisWeights; scoring is pure arithmetic over index
// state, so rankings are deterministic and byte-identical across
// worker counts.
//
// Candidate generation is the exact postings scan: every indexed
// column sharing a value with a query column is a candidate, and the
// scan counts its overlap as it goes, so verification is one map
// increment per shared value. There is no MinHash/LSH banding stage:
// measured on the study corpora up to 7844 indexed columns, banding
// was slower to build and to query than the scan and never changed a
// ranking (EXPERIMENTS.md, "Ranked search").
package search
