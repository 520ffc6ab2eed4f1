package dataset

import (
	"encoding/binary"
	"encoding/hex"
	"strconv"
)

// This file implements the table content fingerprint: a cheap, deterministic
// hash over a table's schema and cell values that changes whenever the data
// changes. It is the dataset half of the cross-request result-cache key (see
// internal/resultcache): two tables with the same fingerprint hold the same
// released bytes, so a memoized release computed from one is valid for the
// other. The row-content part is a running hasher state kept with the
// table: builders (CSV ingest, FromRows) fold it while encoding, AppendTable
// extends it over the appended rows only, and a table whose columns were
// replaced refolds it from its coded columns on the next call.
//
// The hash is two 64-bit accumulators folded over per-cell FNV-1a hashes:
// each cell's bytes (plus a terminator, so boundaries stay unambiguous) are
// reduced to one 64-bit value, and the cell stream is then mixed into the
// accumulator pair with position-sensitive multiply-xor steps. Reducing cells
// first is what makes ingest-time hashing cheap: the dictionary-encoding loop
// hashes each distinct value once and folds a ready 64-bit word per cell,
// instead of re-hashing repeated cell bytes for every row.

// FNV-1a 64-bit parameters (hash/fnv's, inlined so the per-cell loop has no
// interface-call or buffer-copy overhead).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Second-accumulator constants: an independent offset (the splitmix64/golden
// ratio increment) and a distinct odd multiplier, so the pair does not
// collapse to one 64-bit state under the shared fold input.
const (
	fpOffsetB uint64 = 0x9e3779b97f4a7c15
	fpPrimeB  uint64 = 0x00000100000001b3 ^ 0xff51afd7ed558ccb
)

// cell and row terminators for fingerprint hashing. The cell terminator is
// hashed after every cell's bytes, so adjacent-cell content cannot collide
// with shifted boundaries; the row terminator is a fold sentinel
// distinguishing {"a","b"},{"c"} from {"a"},{"b","c"}.
const (
	fpCellSep        = 0x1f
	fpRowSep  uint64 = 0x1e
)

// hashCell reduces one cell to a 64-bit FNV-1a hash of its bytes followed by
// the cell terminator.
func hashCell(v string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= fnvPrime64
	}
	h ^= fpCellSep
	h *= fnvPrime64
	return h
}

// contentHasher folds a stream of per-cell hashes into a 128-bit accumulator
// pair. The multiply after every xor makes the fold position-sensitive:
// swapping two cells changes the result.
type contentHasher struct {
	a, b uint64
}

func newContentHasher() contentHasher {
	return contentHasher{a: fnvOffset64, b: fpOffsetB}
}

// fold mixes one pre-hashed cell into the accumulators.
func (c *contentHasher) fold(cellHash uint64) {
	c.a = (c.a ^ cellHash) * fnvPrime64
	c.b = (c.b ^ cellHash) * fpPrimeB
}

// cell hashes one cell value and folds it.
func (c *contentHasher) cell(v string) {
	c.fold(hashCell(v))
}

// endRow folds the row terminator.
func (c *contentHasher) endRow() {
	c.fold(fpRowSep)
}

// sum returns the accumulated hash in lowercase hex.
func (c contentHasher) sum() string {
	var out [16]byte
	binary.BigEndian.PutUint64(out[:8], c.a)
	binary.BigEndian.PutUint64(out[8:], c.b)
	return hex.EncodeToString(out[:])
}

// parseHasher restores a hasher state from its sum, reporting whether s is
// one (32 hex digits).
func parseHasher(s string) (contentHasher, bool) {
	var raw [16]byte
	if len(s) != 32 {
		return contentHasher{}, false
	}
	if _, err := hex.Decode(raw[:], []byte(s)); err != nil {
		return contentHasher{}, false
	}
	return contentHasher{a: binary.BigEndian.Uint64(raw[:8]), b: binary.BigEndian.Uint64(raw[8:])}, true
}

// foldRows folds rows [0, n) of cols into h, hashing each distinct
// dictionary value once and folding the per-cell words in row order.
func foldRows(h *contentHasher, n int, cols []*CodedColumn) {
	memo := make([][]uint64, len(cols))
	for j, cc := range cols {
		m := make([]uint64, len(cc.Dict))
		for code, v := range cc.Dict {
			m[code] = hashCell(v)
		}
		memo[j] = m
	}
	for i := 0; i < n; i++ {
		for j, cc := range cols {
			h.fold(memo[j][cc.Codes[i]])
		}
		h.endRow()
	}
}

// rowsHash returns the row-content hasher state over all rows, folding it
// from the columns the first time it is needed.
func (t *Table) rowsHash() contentHasher {
	if h := t.hash.Load(); h != nil {
		return *h
	}
	h := newContentHasher()
	foldRows(&h, t.n, t.cols)
	t.hash.Store(&h)
	return h
}

// Fingerprint returns a deterministic content hash of the table: its schema
// (attribute names, kinds and types, in order) combined with every cell
// value. Tables with equal schemas and equal cell contents have equal
// fingerprints; any mutation — appending rows or overwriting a cell — yields
// a different one. The row-content hash is kept with the table, so repeated
// calls on an unchanged table are O(schema).
func (t *Table) Fingerprint() string {
	rows := t.rowsHash()
	ch := newContentHasher()
	for _, a := range t.schema.attrs {
		ch.cell(a.Name)
		ch.cell(strconv.Itoa(int(a.Kind)))
		ch.cell(strconv.Itoa(int(a.Type)))
		ch.endRow()
	}
	ch.cell(strconv.Itoa(t.n))
	ch.cell(rows.sum())
	return ch.sum()
}
