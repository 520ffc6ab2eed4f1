package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func snapshotFixture(t *testing.T) *Table {
	t.Helper()
	schema, err := NewSchema(
		Attribute{Name: "age", Kind: QuasiIdentifier, Type: Numeric},
		Attribute{Name: "zip", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "disease", Kind: Sensitive, Type: Categorical},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := FromRows(schema, []Row{
		{"34", "13053", "flu"},
		{"41", "13068", "cancer"},
		{"34", "13053", "cancer"},
		{"27", "14850", "flu"},
		{"[20-30)", "148**", "hepatitis"},
		{"41", "13068", "flu"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func writeSnapshotFile(t *testing.T, tbl *Table) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "table.col")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSnapshotRoundTrip(t *testing.T) {
	tbl := snapshotFixture(t)
	path := writeSnapshotFile(t, tbl)

	mt, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	got := mt.Table()

	if got.Len() != tbl.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), tbl.Len())
	}
	if got.Fingerprint() != tbl.Fingerprint() {
		t.Fatalf("fingerprint mismatch: %s vs %s", got.Fingerprint(), tbl.Fingerprint())
	}
	if !got.Schema().Equal(tbl.Schema()) {
		t.Fatalf("schema mismatch")
	}
	for i := 0; i < tbl.Len(); i++ {
		want, _ := tbl.Row(i)
		have, err := got.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if have[j] != want[j] {
				t.Fatalf("row %d col %d = %q, want %q", i, j, have[j], want[j])
			}
		}
	}

	// The typed views must match the source table's.
	for col := 0; col < tbl.Schema().Len(); col++ {
		wantCC, _ := tbl.CodedColumn(col)
		gotCC, err := got.CodedColumn(col)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotCC.Dict) != len(wantCC.Dict) {
			t.Fatalf("col %d: dict size %d, want %d", col, len(gotCC.Dict), len(wantCC.Dict))
		}
		for i, v := range wantCC.Dict {
			if gotCC.Dict[i] != v {
				t.Fatalf("col %d dict[%d] = %q, want %q", col, i, gotCC.Dict[i], v)
			}
		}
		for i, c := range wantCC.Codes {
			if gotCC.Codes[i] != c {
				t.Fatalf("col %d codes[%d] = %d, want %d", col, i, gotCC.Codes[i], c)
			}
			if gotCC.ranks[c] != wantCC.ranks[c] {
				t.Fatalf("col %d ranks[%d] = %d, want %d", col, c, gotCC.ranks[c], wantCC.ranks[c])
			}
		}
		// Reverse lookup works via the lazily-built index.
		code, ok := gotCC.Code(wantCC.Dict[0])
		if !ok || code != 0 {
			t.Fatalf("Code(%q) = %d,%v, want 0,true", wantCC.Dict[0], code, ok)
		}
	}
	wantFC, _ := tbl.FloatColumn(0)
	gotFC, err := got.FloatColumn(0)
	if err != nil {
		t.Fatal(err)
	}
	if gotFC.ValidCount != wantFC.ValidCount || gotFC.Min != wantFC.Min || gotFC.Max != wantFC.Max {
		t.Fatalf("float column stats mismatch: %+v vs %+v", gotFC, wantFC)
	}
	for i := range wantFC.Values {
		if gotFC.Valid[i] != wantFC.Valid[i] || gotFC.Values[i] != wantFC.Values[i] {
			t.Fatalf("float cell %d mismatch", i)
		}
	}

	// GroupBy over the mapped table must match the heap table.
	wantGroups, err := tbl.GroupBy("age", "zip")
	if err != nil {
		t.Fatal(err)
	}
	gotGroups, err := got.GroupBy("age", "zip")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotGroups, wantGroups) {
		t.Fatal("GroupBy over the mapped table differs from the heap table")
	}
}

func TestSnapshotEmptyTable(t *testing.T) {
	schema, err := NewSchema(
		Attribute{Name: "a", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "n", Kind: QuasiIdentifier, Type: Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(schema)
	path := writeSnapshotFile(t, tbl)
	mt, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	if mt.Table().Len() != 0 {
		t.Fatalf("Len = %d, want 0", mt.Table().Len())
	}
	if mt.Table().Fingerprint() != tbl.Fingerprint() {
		t.Fatal("fingerprint mismatch on empty table")
	}
}

// TestSnapshotRowsReadFromColumns asserts that a mapped table serves rows
// and cells straight from its mapped columns, and that a returned row is a
// copy.
func TestSnapshotRowsReadFromColumns(t *testing.T) {
	tbl := snapshotFixture(t)
	mt, err := OpenSnapshot(writeSnapshotFile(t, tbl))
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	got := mt.Table()
	if got.Len() != tbl.Len() {
		t.Fatal("Len mismatch")
	}
	for i := 0; i < tbl.Len(); i++ {
		want, _ := tbl.Row(i)
		if r, err := got.Row(i); err != nil || !slices.Equal(r, want) {
			t.Fatalf("Row(%d) = %v, %v; want %v", i, r, err, want)
		}
	}
	r, _ := got.Row(0)
	r[0] = "mutated"
	if v, _ := got.Value(0, 0); v != "34" {
		t.Fatalf("Row returned aliased storage: Value(0, 0) = %q", v)
	}
}

// TestSnapshotWriteLeavesFile asserts that writing to a mapped table
// installs heap columns (new fingerprint, visible write) without altering
// the file.
func TestSnapshotWriteLeavesFile(t *testing.T) {
	tbl := snapshotFixture(t)
	path := writeSnapshotFile(t, tbl)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	got := mt.Table()
	if err := got.SetValue(0, 2, "measles"); err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Value(0, 2); v != "measles" {
		t.Fatalf("Value = %q after SetValue", v)
	}
	if got.Fingerprint() == tbl.Fingerprint() {
		t.Fatal("fingerprint unchanged after mutation")
	}
	extra, err := FromRows(tbl.Schema(), []Row{{"50", "99999", "flu"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.AppendTable(extra); err != nil {
		t.Fatal(err)
	}
	if got.Len() != tbl.Len()+1 {
		t.Fatalf("Len = %d after append", got.Len())
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("mutating a mapped table changed the snapshot file")
	}
	// A fresh open still sees the original content.
	mt2, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mt2.Close()
	if mt2.Table().Fingerprint() != tbl.Fingerprint() {
		t.Fatal("snapshot content drifted")
	}
}

// TestSnapshotRejectsCorruption flips every region of the file and asserts
// OpenSnapshot refuses to serve the table.
func TestSnapshotRejectsCorruption(t *testing.T) {
	tbl := snapshotFixture(t)
	path := writeSnapshotFile(t, tbl)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		off  int
	}{
		{"magic", 0},
		{"header-length", 8},
		{"header-crc", 12},
		{"header-json", 20},
		{"data-region", len(orig) - 8},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := append([]byte(nil), orig...)
			mutated[tc.off] ^= 0x40
			p := filepath.Join(dir, tc.name+".col")
			if err := os.WriteFile(p, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			if mt, err := OpenSnapshot(p); err == nil {
				mt.Close()
				t.Fatal("corrupted snapshot opened cleanly")
			}
		})
	}
	t.Run("truncated", func(t *testing.T) {
		p := filepath.Join(dir, "truncated.col")
		if err := os.WriteFile(p, orig[:len(orig)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if mt, err := OpenSnapshot(p); err == nil {
			mt.Close()
			t.Fatal("truncated snapshot opened cleanly")
		}
	})
	t.Run("empty", func(t *testing.T) {
		p := filepath.Join(dir, "empty.col")
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if mt, err := OpenSnapshot(p); err == nil {
			mt.Close()
			t.Fatal("empty file opened cleanly")
		}
	})
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	tbl := snapshotFixture(t)
	var a, b bytes.Buffer
	if err := tbl.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Clone().WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot encoding is not deterministic")
	}
}

// TestSnapshotOfMappedTable re-snapshots a mapped table, exercising the
// encode path over zero-copy views.
func TestSnapshotOfMappedTable(t *testing.T) {
	tbl := snapshotFixture(t)
	mt, err := OpenSnapshot(writeSnapshotFile(t, tbl))
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	var buf bytes.Buffer
	if err := mt.Table().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := tbl.WriteSnapshot(&ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
		t.Fatal("re-snapshot of a mapped table is not byte-identical")
	}
}

// TestMmapScanLargerThanHeapBudget scans a snapshot much larger than the
// allowed heap growth: GroupBy and the float view must run over the mapping
// without pulling the dictionary blob or code arrays onto the heap. The
// float view is derived from the dictionary on the heap (rows × 9 bytes),
// as for a heap column, and is released before the measurement; what stays
// is the per-value string headers the open builds over the mapped blob.
func TestMmapScanLargerThanHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("large fixture")
	}
	if !mmapAvailable {
		t.Skip("platform has no mmap; the fallback reads snapshots onto the heap")
	}
	const rows = 200_000
	schema, err := NewSchema(
		Attribute{Name: "id", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "grp", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "score", Kind: Sensitive, Type: Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 100)
	src := make([]Row, rows)
	for i := range src {
		src[i] = Row{
			fmt.Sprintf("user-%07d-%s", i, pad),
			fmt.Sprintf("g%02d", i%17),
			fmt.Sprintf("%d.5", i%1000),
		}
	}
	tbl, err := FromRows(schema, src)
	if err != nil {
		t.Fatal(err)
	}
	path := writeSnapshotFile(t, tbl)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size := st.Size()
	tbl, src = nil, nil

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	mt, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	classes, err := mt.Table().GroupBy("grp")
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 17 {
		t.Fatalf("classes = %d, want 17", len(classes))
	}
	fc, err := mt.Table().FloatColumnByName("score")
	if err != nil {
		t.Fatal(err)
	}
	if fc.ValidCount != rows {
		t.Fatalf("ValidCount = %d, want %d", fc.ValidCount, rows)
	}
	classes, fc = nil, nil
	_ = classes
	_ = fc

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	growth := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	if budget := size / 3; growth > budget {
		t.Fatalf("heap grew %d bytes scanning a %d-byte snapshot (budget %d): scan is not zero-copy", growth, size, budget)
	}
}

// TestSnapshotVerifyContent exercises the audit-grade verification pass: it
// accepts a clean snapshot, and catches a forged header whose fingerprints
// belong to a different table even when every CRC is internally consistent —
// the one corruption class the open-path CRC checks cannot see.
func TestSnapshotVerifyContent(t *testing.T) {
	tbl := snapshotFixture(t)
	path := writeSnapshotFile(t, tbl)
	mt, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.VerifyContent(); err != nil {
		t.Fatalf("VerifyContent on clean snapshot: %v", err)
	}
	mt.Close()

	// A second table with the same schema but different cells, whose
	// fingerprints we transplant into the first snapshot's header.
	other, err := FromRows(tbl.Schema(), []Row{
		{"99", "00000", "none"},
		{"98", "00001", "none"},
		{"97", "00002", "none"},
		{"96", "00003", "none"},
		{"95", "00004", "none"},
		{"94", "00005", "none"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rowsFPOf := func(t2 *Table) string { return t2.rowsHash().sum() }
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hlen := int(binary.LittleEndian.Uint32(data[8:12]))
	hdr := data[16 : 16+hlen]
	forged := bytes.ReplaceAll(hdr, []byte(rowsFPOf(tbl)), []byte(rowsFPOf(other)))
	forged = bytes.ReplaceAll(forged, []byte(tbl.Fingerprint()), []byte(other.Fingerprint()))
	if bytes.Equal(forged, hdr) {
		t.Fatal("forgery did not change the header")
	}
	if len(forged) != len(hdr) {
		t.Fatalf("forged header length changed: %d != %d", len(forged), len(hdr))
	}
	copy(data[16:16+hlen], forged)
	binary.LittleEndian.PutUint32(data[12:16], crc32.ChecksumIEEE(forged))
	fp := filepath.Join(t.TempDir(), "forged.col")
	if err := os.WriteFile(fp, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Every CRC is consistent, so the snapshot opens — but the content no
	// longer hashes to what the header claims.
	fm, err := OpenSnapshot(fp)
	if err != nil {
		t.Fatalf("forged snapshot failed structural open: %v", err)
	}
	defer fm.Close()
	if err := fm.VerifyContent(); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("VerifyContent on forged snapshot = %v, want ErrSnapshotCorrupt", err)
	}
}

// heapMismatch rebuilds tbl on the heap with FromRows over its own decoded
// rows and describes the first way tbl behaves differently: a float view of
// any column, or GroupBy over all columns (values, members and class
// order). It returns "" when the two agree. Fingerprints are left to
// the caller, since a snapshot's comes from its header.
func heapMismatch(tbl *Table) (string, *Table) {
	heap, err := FromRows(tbl.Schema(), tbl.Rows())
	if err != nil {
		return fmt.Sprintf("FromRows over the decoded rows: %v", err), nil
	}
	for c := 0; c < tbl.Schema().Len(); c++ {
		got, _ := tbl.FloatColumn(c)
		want, _ := heap.FloatColumn(c)
		if got.ValidCount != want.ValidCount || got.Min != want.Min || got.Max != want.Max ||
			!slices.Equal(got.Valid, want.Valid) ||
			!slices.EqualFunc(got.Values, want.Values, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			return fmt.Sprintf("column %d: FloatColumn %+v, heap %+v", c, *got, *want), heap
		}
	}
	names := tbl.Schema().Names()
	got, err := tbl.GroupBy(names...)
	if err != nil {
		return fmt.Sprintf("GroupBy: %v", err), heap
	}
	want, _ := heap.GroupBy(names...)
	if !slices.EqualFunc(got, want, func(a, b EquivalenceClass) bool {
		return slices.Equal(a.Values, b.Values) && slices.Equal(a.Rows, b.Rows)
	}) {
		return fmt.Sprintf("GroupBy %q, heap %q", got, want), heap
	}
	return "", heap
}

// TestSnapshotOlderFormat opens a snapshot written by an earlier encoder,
// which also stored a float vector, validity bytes and the "clean" and
// "float" header keys. The decoder ignores them: the table must have the
// cells, fingerprint, float views and grouping of its heap rebuild, and
// re-encode to the bytes the rebuild encodes to.
func TestSnapshotOlderFormat(t *testing.T) {
	path := filepath.Join("testdata", "snapshot", "parent.tbl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"float":{`)) || !bytes.Contains(raw, []byte(`"clean":`)) {
		t.Fatal("fixture lost the older header keys")
	}
	mt, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	if err := mt.VerifyContent(); err != nil {
		t.Fatal(err)
	}
	tbl := mt.Table()
	if tbl.Len() != 8 {
		t.Fatalf("Len = %d, want 8", tbl.Len())
	}
	if v, _ := tbl.Value(4, 2); v != "hepa\x01titis" {
		t.Fatalf("Value(4, 2) = %q", v)
	}
	diff, heap := heapMismatch(tbl)
	if diff != "" {
		t.Fatal(diff)
	}
	if tbl.Fingerprint() != heap.Fingerprint() {
		t.Fatalf("fingerprint %s, heap rebuild %s", tbl.Fingerprint(), heap.Fingerprint())
	}
	var got, ref bytes.Buffer
	if err := tbl.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := heap.WriteSnapshot(&ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Fatal("re-encoding the older snapshot differs from encoding its heap rebuild")
	}
	if bytes.Contains(ref.Bytes(), []byte(`"float"`)) || bytes.Contains(ref.Bytes(), []byte(`"clean"`)) {
		t.Fatal("the encoder still writes derived header keys")
	}
	hlen := binary.LittleEndian.Uint32(ref.Bytes()[8:12])
	var h snapHeader
	if err := json.Unmarshal(ref.Bytes()[16:16+hlen], &h); err != nil {
		t.Fatal(err)
	}
	for c, col := range h.Cols {
		if col.OffDict != align8(col.OffCodes+4*int64(tbl.Len())) {
			t.Fatalf("column %d: dict at %d, codes end at %d: a section sits between them", c, col.OffDict, col.OffCodes+4*int64(tbl.Len()))
		}
	}
}

// TestSnapshotForgedDerivedFacts opens snapshots whose CRCs were recomputed
// over forged contents, each of which an earlier decoder served as a wrong
// table: a float section reading 9999 for the cell "34" (and holding a
// validity byte of 2), a clean flag over values holding the 0x1f signature
// separator, and two swapped ranks. Derived facts now come from the cells,
// so the first two behave exactly like their heap rebuilds; ranks are
// stored, so a pair out of order is refused. The clean forgery's two rows
// join to one signature but differ as value tuples, so they form two
// classes.
func TestSnapshotForgedDerivedFacts(t *testing.T) {
	for _, name := range []string{"forged_float.tbl", "forged_clean.tbl"} {
		t.Run(name, func(t *testing.T) {
			mt, err := OpenSnapshot(filepath.Join("testdata", "snapshot", name))
			if err != nil {
				t.Fatal(err)
			}
			defer mt.Close()
			diff, heap := heapMismatch(mt.Table())
			if diff != "" {
				t.Fatal(diff)
			}
			if mt.Table().Fingerprint() != heap.Fingerprint() {
				t.Fatal("fingerprint differs from the heap rebuild")
			}
		})
	}
	t.Run("forged_clean.tbl/two classes", func(t *testing.T) {
		mt, err := OpenSnapshot(filepath.Join("testdata", "snapshot", "forged_clean.tbl"))
		if err != nil {
			t.Fatal(err)
		}
		defer mt.Close()
		if classes, _ := mt.Table().GroupBy("a", "b"); len(classes) != 2 {
			t.Fatalf("GroupBy = %d classes, want 2 (the rows differ as value tuples)", len(classes))
		}
	})
	t.Run("forged_ranks.tbl", func(t *testing.T) {
		mt, err := OpenSnapshot(filepath.Join("testdata", "snapshot", "forged_ranks.tbl"))
		if err == nil {
			mt.Close()
			t.Fatal("snapshot with swapped ranks opened")
		}
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
	})
}
