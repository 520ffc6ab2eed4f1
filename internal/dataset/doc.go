// Package dataset provides the in-memory tabular data model used throughout
// the PPDP library: schemas, typed attributes, row-oriented tables,
// equivalence-class partitioning, projections, sampling and CSV interchange.
//
// # Model
//
// The model follows the conventions of the privacy-preserving data publishing
// literature. Every attribute carries a Kind that describes its disclosure
// role (identifier, quasi-identifier, sensitive, insensitive) and a Type that
// describes how its values are interpreted (categorical or numeric). Values
// are stored as strings; numeric attributes are parsed on demand, which keeps
// the table representation uniform across original, generalized and perturbed
// releases (a generalized numeric value such as "[20-29]" is no longer a
// number).
//
// # Columnar views
//
// Row storage is the source of truth, but hot paths never re-parse or
// re-join row strings: Table.FloatColumn returns a parse-once numeric view
// (values, validity, extrema) and Table.CodedColumn a dictionary-encoded
// view (dense uint32 codes in first-appearance order, with lexicographic
// ranks). Table.GroupBy builds equivalence classes from mixed-radix coded
// keys — one uint64 per row — and falls back to the historical string path
// only when a dictionary contains control bytes or the key space overflows;
// both paths produce byte-identical output.
//
// # Mutation and concurrency
//
// Columnar views are cached per table and invalidated on mutation (SetValue
// invalidates one column, Append and AppendTable invalidate all) and rebuilt
// lazily. Returned views are immutable snapshots: a mutation never changes a
// column a caller already holds. The cache is mutex-guarded, so concurrent
// readers — parallel Mondrian workers, concurrent HTTP requests against one
// stored dataset — can build and share columns safely. Tables produced by
// WithSchema share row storage and therefore share the cache.
//
// Views survive derivation: Clone and Project (and so DropIdentifiers) start
// with the source's views of the columns they keep, so the views of a
// stored dataset — installed at CSV ingest or snapshot open, or built by an
// earlier reader — are not rebuilt once per request. Views are immutable, so
// a later write on either table only drops that table's own views. SetCodedColumn writes
// a whole column and installs its coded view in one step; per-group
// recoding (internal/generalize) releases every quasi-identifier column
// through it.
package dataset
