// Package dataset provides the in-memory tabular data model used throughout
// the PPDP library: schemas, typed attributes, dictionary-coded tables,
// equivalence-class partitioning, projections, sampling, CSV interchange and
// columnar snapshots.
//
// # Model
//
// The model follows the conventions of the privacy-preserving data publishing
// literature. Every attribute carries a Kind that describes its disclosure
// role (identifier, quasi-identifier, sensitive, insensitive) and a Type that
// describes how its values are interpreted (categorical or numeric). Values
// are strings; numeric attributes are parsed on demand, which keeps
// the table representation uniform across original, generalized and perturbed
// releases (a generalized numeric value such as "[20-29]" is no longer a
// number).
//
// # Storage
//
// A Table is its columns: one immutable dictionary-coded CodedColumn per
// attribute (dense uint32 codes in first-appearance order, the dictionary,
// and the values' lexicographic ranks), plus the row count and the running
// row-content fingerprint state. There is no row storage; Row and Value
// read Dict[Codes[i]], and Row returns a fresh copy. Hot paths never
// re-parse or re-join strings: Table.FloatColumn returns a parse-once
// numeric view derived from the dictionary, and Table.GroupBy identifies
// each equivalence class by its value tuple through mixed-radix coded
// keys — one uint64 per row, chained over runs of columns when the key
// space overflows — and orders classes by the values' ranks. Heap tables (FromRows, ReadCSV) and snapshot
// tables (OpenSnapshot) are the same type and differ only in where the
// column buffers live.
//
// # Writes and concurrency
//
// Columns never change once installed: writers build a new column and swap
// it in. SetCodedColumn installs a whole recoded column (per-group and
// full-domain recoding and cell suppression in internal/generalize use it);
// AppendTable copies the old codes as integers, interns only the appended
// values and extends the fingerprint over the appended rows; SetValue
// re-encodes one column and exists for tests. Derived tables — Clone,
// Project (and so DropIdentifiers) and WithSchema — share the source's
// column objects, so a stored dataset's columns, installed at CSV ingest or
// snapshot open, are never rebuilt per request; Select re-codes the rows it
// picks. Each column builds its float view, value distribution and reverse
// index once, under a sync.Once, for every table sharing it, so concurrent
// readers — parallel Mondrian workers, concurrent HTTP requests against one
// stored dataset — need no table lock. Writers require exclusive access to
// the table they write.
package dataset
