package dataset

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// padAlphabet is the value pool of the SelectPad property test: short
// values with shared prefixes, a control byte (so byte order is not
// printable order), the empty string and the suppression marker.
var padAlphabet = []string{"", "*", "a", "ab", "b", "ba", "z\x01", "10", "9", "counterfeit"}

// TestSelectPadMatchesFromRows: on random tables, SelectPad must encode
// exactly what FromRows gives over the same cells — dictionary, codes,
// ranks, fingerprint and GroupBy class order — whether the pad
// values collide with the column's values, are new, or fill every row.
func TestSelectPadMatchesFromRows(t *testing.T) {
	schema := MustSchema(
		Attribute{Name: "a", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "b", Kind: QuasiIdentifier, Type: Numeric},
		Attribute{Name: "c", Kind: Sensitive, Type: Categorical},
	)
	rng := rand.New(rand.NewSource(22))
	pick := func(alphabet []string) string { return alphabet[rng.Intn(len(alphabet))] }
	for trial := 0; trial < 300; trial++ {
		// Each column draws from a random slice of the alphabet, so a pad
		// value is sometimes in the column and sometimes not.
		alphabets := make([][]string, schema.Len())
		for j := range alphabets {
			lo := rng.Intn(len(padAlphabet))
			alphabets[j] = padAlphabet[lo : lo+1+rng.Intn(len(padAlphabet)-lo)]
		}
		rows := make([]Row, rng.Intn(40))
		for i := range rows {
			rows[i] = make(Row, schema.Len())
			for j := range rows[i] {
				rows[i][j] = pick(alphabets[j])
			}
		}
		src, err := FromRows(schema, rows)
		if err != nil {
			t.Fatal(err)
		}
		pad := make(Row, schema.Len())
		for j := range pad {
			pad[j] = pick(padAlphabet)
		}
		var indices []int
		switch trial % 5 {
		case 0: // empty selection
		case 1: // all pad
			indices = make([]int, 1+rng.Intn(5))
			for i := range indices {
				indices[i] = -1
			}
		default:
			indices = make([]int, rng.Intn(60))
			for i := range indices {
				indices[i] = rng.Intn(len(rows)+1) - 1
			}
		}
		got, err := src.SelectPad(indices, pad)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cells := make([]Row, len(indices))
		for i, r := range indices {
			if r < 0 {
				cells[i] = pad
			} else {
				cells[i] = rows[r]
			}
		}
		want, err := FromRows(schema, cells)
		if err != nil {
			t.Fatal(err)
		}
		assertSameEncoding(t, trial, got, want)
	}
}

// assertSameEncoding compares two tables column by column and by their
// fingerprints and full-width GroupBy.
func assertSameEncoding(t *testing.T, trial int, got, want *Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("trial %d: %d rows, want %d", trial, got.Len(), want.Len())
	}
	for j := range want.cols {
		g, w := got.cols[j], want.cols[j]
		if !slices.Equal(g.Dict, w.Dict) || !slices.Equal(g.Codes, w.Codes) {
			t.Fatalf("trial %d column %d: dict %q codes %v, want %q %v", trial, j, g.Dict, g.Codes, w.Dict, w.Codes)
		}
		if !slices.Equal(g.ranks, w.ranks) {
			t.Fatalf("trial %d column %d: ranks %v, want %v", trial, j, g.ranks, w.ranks)
		}
	}
	if g, w := got.Fingerprint(), want.Fingerprint(); g != w {
		t.Fatalf("trial %d: fingerprint %s, want %s", trial, g, w)
	}
	gc, err := got.GroupBy(got.Schema().Names()...)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := want.GroupBy(want.Schema().Names()...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gc, wc) {
		t.Fatalf("trial %d: GroupBy classes differ:\n got %v\nwant %v", trial, gc, wc)
	}
}

// TestSelectPadFromSnapshot: a column loaded from a snapshot (no value
// index, ranks read from disk) pads exactly like a heap-built one.
func TestSelectPadFromSnapshot(t *testing.T) {
	rows := kernelRows(200, 3)
	rows[5][1] = SuppressedValue
	heap, err := FromRows(fpSchema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := OpenSnapshot(writeSnapshotFile(t, heap))
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	indices := []int{-1, 9, 5, -1, 0, 199, 9}
	pad := Row{"*", "*", "zzz"}
	got, err := mt.Table().SelectPad(indices, pad)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]Row, len(indices))
	for i, r := range indices {
		cells[i] = pad
		if r >= 0 {
			cells[i] = rows[r]
		}
	}
	want, err := FromRows(fpSchema(), cells)
	if err != nil {
		t.Fatal(err)
	}
	assertSameEncoding(t, 0, got, want)
}

func TestSelectPadErrors(t *testing.T) {
	tbl, err := FromRows(fpSchema(), kernelRows(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	pad := Row{"*", "*", "*"}
	for _, indices := range [][]int{{5}, {0, -2}, {6, -1}} {
		if _, err := tbl.SelectPad(indices, pad); !errors.Is(err, ErrRowIndex) {
			t.Errorf("SelectPad(%v) error = %v, want ErrRowIndex", indices, err)
		}
	}
	// Without a pad row, -1 is out of range like any other negative index.
	if _, err := tbl.SelectPad([]int{0, -1}, nil); !errors.Is(err, ErrRowIndex) {
		t.Errorf("SelectPad without a pad accepted -1: %v", err)
	}
	if _, err := tbl.SelectPad([]int{-1}, Row{"*"}); !errors.Is(err, ErrRowArity) {
		t.Errorf("short pad error = %v, want ErrRowArity", err)
	}
}
