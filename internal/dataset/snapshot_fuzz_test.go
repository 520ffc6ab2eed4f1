package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenSnapshot feeds arbitrary bytes to the snapshot decoder: it must
// either refuse them or return a table every cell of which reads, writes as
// CSV and verifies without panicking, and which behaves exactly like
// FromRows over its own decoded rows (float views, grouping, and — when
// VerifyContent accepts the header — the fingerprint). Random bytes rarely
// get past the checksums, so each input is also tried resealed — header and
// segment CRCs recomputed over the mutated bytes — which sends the
// structural checks behind them the same inputs. The seeds include the
// snapshots under testdata/snapshot: one from an earlier encoder and three
// forgeries of it.
func FuzzOpenSnapshot(f *testing.F) {
	for _, tbl := range fuzzSnapshotSeeds(f) {
		var buf bytes.Buffer
		if err := tbl.WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	files, err := filepath.Glob(filepath.Join("testdata", "snapshot", "*.tbl"))
	if err != nil || len(files) == 0 {
		f.Fatalf("snapshot seeds: %v (%d files)", err, len(files))
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for i, b := range [][]byte{data, resealSnapshot(data)} {
			if b == nil {
				continue
			}
			path := filepath.Join(dir, []string{"raw.tbl", "resealed.tbl"}[i])
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			mt, err := OpenSnapshot(path)
			if err != nil {
				continue
			}
			tbl := mt.Table()
			for r := 0; r < tbl.Len(); r++ {
				for c := 0; c < tbl.Schema().Len(); c++ {
					if _, err := tbl.Value(r, c); err != nil {
						t.Fatalf("Value(%d, %d): %v", r, c, err)
					}
				}
			}
			if err := tbl.WriteCSV(io.Discard); err != nil {
				t.Fatalf("WriteCSV: %v", err)
			}
			diff, heap := heapMismatch(tbl)
			if diff != "" {
				t.Fatal(diff)
			}
			if verified := mt.VerifyContent() == nil; verified != (tbl.Fingerprint() == heap.Fingerprint()) {
				t.Fatalf("VerifyContent passed = %v, but fingerprint %s vs heap rebuild %s", verified, tbl.Fingerprint(), heap.Fingerprint())
			}
			if err := mt.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// fuzzSnapshotSeeds returns small tables covering the segment variants:
// numeric and categorical columns, empty tables, repeated and control-byte
// values.
func fuzzSnapshotSeeds(f *testing.F) []*Table {
	num := MustSchema(
		Attribute{Name: "n", Kind: QuasiIdentifier, Type: Numeric},
		Attribute{Name: "s", Kind: Sensitive, Type: Categorical},
	)
	var out []*Table
	for _, rows := range [][]Row{
		nil,
		{{"1", "a"}},
		{{"34", "flu"}, {"[20-30)", "flu"}, {"34", "x\x01y"}, {"", "*"}},
	} {
		tbl, err := FromRows(num, rows)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, tbl)
	}
	return out
}

// resealSnapshot recomputes the header and segment CRCs of a snapshot-shaped
// input, or returns nil when the input has no decodable header or the
// resealed header would move the data region.
func resealSnapshot(data []byte) []byte {
	if len(data) < 16 {
		return nil
	}
	hlen := int64(binary.LittleEndian.Uint32(data[8:12]))
	if 16+hlen > int64(len(data)) {
		return nil
	}
	var h snapHeader
	if json.Unmarshal(data[16:16+hlen], &h) != nil {
		return nil
	}
	out := bytes.Clone(data)
	dataStart := alignPage(16 + hlen)
	for i := range h.Cols {
		start, n := dataStart+h.Cols[i].SegOff, h.Cols[i].SegLen
		if seg, err := slice("", out, start, n, ""); err == nil {
			h.Cols[i].CRC = crc32.ChecksumIEEE(seg)
		}
	}
	hdr, err := json.Marshal(h)
	if err != nil || alignPage(16+int64(len(hdr))) != dataStart || 16+len(hdr) > len(out) {
		return nil
	}
	copy(out[16:], hdr) // leftover old header bytes fall in ignored padding
	binary.LittleEndian.PutUint32(out[8:12], uint32(len(hdr)))
	binary.LittleEndian.PutUint32(out[12:16], crc32.ChecksumIEEE(hdr))
	return out
}
