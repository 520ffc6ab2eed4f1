package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ppdp/ppdp/internal/dataset"
)

func testTable(t testing.TB, seed int) *dataset.Table {
	t.Helper()
	schema, err := dataset.NewSchema(
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "disease", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows := []dataset.Row{
		{fmt.Sprintf("%d", 20+seed%50), fmt.Sprintf("d%d", seed%7)},
		{fmt.Sprintf("%d", 30+seed%40), fmt.Sprintf("d%d", (seed+3)%7)},
		{fmt.Sprintf("%d", seed), "flu"},
	}
	tbl, err := dataset.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func meta(s string) json.RawMessage { return json.RawMessage(s) }

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := testTable(t, 1)
	fp, err := st.PutTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if fp != tbl.Fingerprint() {
		t.Fatalf("PutTable fp = %s, want %s", fp, tbl.Fingerprint())
	}
	ops := []Op{
		{Op: OpPut, Kind: KindDataset, Key: "census", Tables: []string{fp}, Meta: meta(`{"tenant":"t1"}`)},
		{Op: OpPut, Kind: KindPolicy, Key: "p1", Meta: meta(`{"k":5}`)},
		{Op: OpPut, Kind: KindRelease, Key: "r0", Seq: 0, Tables: []string{fp}, Meta: meta(`{"alg":"datafly"}`)},
		{Op: OpPut, Kind: KindRelease, Key: "r1", Seq: 1, Tables: []string{fp}, Meta: meta(`{"alg":"mondrian"}`)},
		{Op: OpDelete, Kind: KindRelease, Key: "r0"},
	}
	for _, op := range ops {
		if err := st.Apply(op); err != nil {
			t.Fatalf("apply %+v: %v", op, err)
		}
	}
	if got := st.NextSeq(); got != 2 {
		t.Fatalf("NextSeq = %d, want 2", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ds := st2.Records(KindDataset)
	if len(ds) != 1 || ds[0].Key != "census" || string(ds[0].Meta) != `{"tenant":"t1"}` {
		t.Fatalf("datasets = %+v", ds)
	}
	rel := st2.Records(KindRelease)
	if len(rel) != 1 || rel[0].Key != "r1" || rel[0].Seq != 1 {
		t.Fatalf("releases = %+v", rel)
	}
	if pol := st2.Records(KindPolicy); len(pol) != 1 || pol[0].Key != "p1" {
		t.Fatalf("policies = %+v", pol)
	}
	if got := st2.NextSeq(); got != 2 {
		t.Fatalf("recovered NextSeq = %d, want 2", got)
	}
	loaded, err := st2.Table(fp)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != fp {
		t.Fatalf("loaded fingerprint %s, want %s", loaded.Fingerprint(), fp)
	}
	if loaded.Len() != tbl.Len() {
		t.Fatalf("loaded Len = %d, want %d", loaded.Len(), tbl.Len())
	}
	stats := st2.Stats()
	if stats.RecoveredRecords != len(ops) {
		t.Fatalf("RecoveredRecords = %d, want %d", stats.RecoveredRecords, len(ops))
	}
	if stats.MappedTables != 1 {
		t.Fatalf("MappedTables = %d, want 1", stats.MappedTables)
	}
}

// TestCheckpointRecordOrder checks that a manifest lists its records by
// kind, then key, whatever order they were applied in: two stores given the
// same records in opposite orders write byte-identical manifests.
func TestCheckpointRecordOrder(t *testing.T) {
	var ops []Op
	for _, kind := range []string{KindSpec, KindRelease, KindPolicy, KindDataset} {
		for i := range 6 {
			ops = append(ops, Op{Op: OpPut, Kind: kind, Key: fmt.Sprintf("%s-%d", kind, (i*5)%6), Meta: meta(`{}`)})
		}
	}
	clock := func() time.Time { return time.Unix(1_700_000_000, 0) }
	manifest := func(ops []Op) []byte {
		dir := t.TempDir()
		st, err := Open(dir, Options{Now: clock})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for _, op := range ops {
			if err := st.Apply(op); err != nil {
				t.Fatalf("apply %+v: %v", op, err)
			}
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	forward := manifest(ops)
	var man manifestJSON
	if err := json.Unmarshal(forward, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Records) != len(ops) {
		t.Fatalf("manifest holds %d records, want %d", len(man.Records), len(ops))
	}
	for i := 1; i < len(man.Records); i++ {
		a, b := man.Records[i-1], man.Records[i]
		if a.Kind > b.Kind || a.Kind == b.Kind && a.Key >= b.Key {
			t.Fatalf("record %d (%s %s) follows (%s %s)", i, b.Kind, b.Key, a.Kind, a.Key)
		}
	}
	slices.Reverse(ops)
	if backward := manifest(ops); string(backward) != string(forward) {
		t.Fatalf("manifests differ by apply order:\n%s\n%s", forward, backward)
	}
}

func TestStorePutTableDedupes(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fp1, err := st.PutTable(testTable(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := st.PutTable(testTable(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("identical tables got different addresses: %s vs %s", fp1, fp2)
	}
	if st.Stats().TableFiles != 1 {
		t.Fatalf("TableFiles = %d, want 1", st.Stats().TableFiles)
	}
}

func TestStoreCheckpointAndGC(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := st.PutTable(testTable(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(Op{Op: OpPut, Kind: KindDataset, Key: "d", Tables: []string{fp1}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fp2, err := st.PutTable(testTable(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(Op{Op: OpPut, Kind: KindDataset, Key: "d", Tables: []string{fp2}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(st.tablePath(fp1)); !os.IsNotExist(err) {
		t.Fatalf("unreferenced table %s not garbage-collected (err=%v)", fp1, err)
	}
	if _, err := os.Stat(st.tablePath(fp2)); err != nil {
		t.Fatalf("referenced table missing: %v", err)
	}
	stats := st.Stats()
	if stats.Generation != 2 || stats.WALBytes != 0 || stats.WALRecords != 0 {
		t.Fatalf("post-checkpoint stats = %+v", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ds := st2.Records(KindDataset)
	if len(ds) != 1 || len(ds[0].Tables) != 1 || ds[0].Tables[0] != fp2 {
		t.Fatalf("recovered datasets = %+v", ds)
	}
}

// TestStorePutTableSurvivesCheckpoint pins the put-then-apply window: the
// checkpoints that run between PutTable and the Apply referencing its table
// must not garbage-collect the table, whether the put wrote the snapshot or
// deduplicated against one already on disk. A table nothing came to
// reference is collected once the put is putGrace old.
func TestStorePutTableSurvivesCheckpoint(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	st, err := Open(t.TempDir(), Options{Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	checkpoints := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}

	fp, err := st.PutTable(testTable(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	checkpoints(2)
	if err := st.Apply(Op{Op: OpPut, Kind: KindDataset, Key: "d", Tables: []string{fp}}); err != nil {
		t.Fatalf("apply after checkpoints: %v", err)
	}

	// Re-put of an on-disk table that lost its last reference, after the
	// first put's grace has run out.
	if err := st.Apply(Op{Op: OpDelete, Kind: KindDataset, Key: "d"}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * putGrace)
	if _, err := st.PutTable(testTable(t, 1)); err != nil {
		t.Fatal(err)
	}
	checkpoints(2)
	if err := st.Apply(Op{Op: OpPut, Kind: KindDataset, Key: "d", Tables: []string{fp}}); err != nil {
		t.Fatalf("apply after re-put and checkpoints: %v", err)
	}

	orphan, err := st.PutTable(testTable(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	checkpoints(1)
	if _, err := os.Stat(st.tablePath(orphan)); err != nil {
		t.Fatalf("table put within the grace period was collected: %v", err)
	}
	now = now.Add(putGrace)
	checkpoints(1)
	if _, err := os.Stat(st.tablePath(orphan)); !os.IsNotExist(err) {
		t.Fatalf("unreferenced table %s survived its grace period (err=%v)", orphan, err)
	}
	if _, err := os.Stat(st.tablePath(fp)); err != nil {
		t.Fatalf("referenced table missing: %v", err)
	}
}

// TestStoreConcurrentPutTable puts one table from several goroutines at
// once: every put must succeed with the same address, although all of them
// may find the snapshot absent and write it.
func TestStoreConcurrentPutTable(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl := testTable(t, 1)
	want := tbl.Fingerprint()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if fp, err := st.PutTable(tbl); err != nil || fp != want {
				t.Errorf("PutTable = %s, %v; want %s", fp, err, want)
			}
		}()
	}
	wg.Wait()
	if n := st.Stats().TableFiles; n != 1 {
		t.Fatalf("TableFiles = %d, want 1", n)
	}
}

func TestStoreAutoCheckpoint(t *testing.T) {
	st, err := Open(t.TempDir(), Options{CheckpointBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 20; i++ {
		op := Op{Op: OpPut, Kind: KindPolicy, Key: fmt.Sprintf("p%d", i), Meta: meta(`{"k":3}`)}
		if err := st.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Generation == 0 {
		t.Fatal("WAL growth never triggered a checkpoint")
	}
	if stats.WALBytes >= 512 {
		t.Fatalf("WAL kept growing: %d bytes", stats.WALBytes)
	}
	if got := len(st.Records(KindPolicy)); got != 20 {
		t.Fatalf("policies = %d, want 20", got)
	}
}

func TestStoreApplyUnknownTableRefused(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = st.Apply(Op{Op: OpPut, Kind: KindDataset, Key: "d", Tables: []string{"deadbeef"}})
	if !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("err = %v, want ErrUnknownTable", err)
	}
	if len(st.Records(KindDataset)) != 0 {
		t.Fatal("rejected op left a record")
	}
	st.Close()
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(st2.Records(KindDataset)) != 0 {
		t.Fatal("rejected op was journaled")
	}
}

// TestStoreApplyMalformedOpRefused checks that Apply refuses, before
// journaling, every op replay would refuse: an unknown op, an empty kind or
// key, and the largest sequence number. The store then reopens cleanly.
func TestStoreApplyMalformedOpRefused(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []Op{
		{Op: "bogus", Kind: KindPolicy, Key: "p"},
		{Op: OpPut, Kind: "", Key: "p"},
		{Op: OpPut, Kind: KindPolicy, Key: ""},
		{Op: OpDelete, Kind: KindPolicy, Key: "p", Seq: math.MaxUint64},
	} {
		if err := st.Apply(op); err == nil {
			t.Errorf("Apply(%+v) accepted", op)
		}
	}
	st.Close()
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after refused ops: %v", err)
	}
	defer st2.Close()
	if st2.walRecords != 0 {
		t.Fatalf("refused ops left %d WAL records", st2.walRecords)
	}
}

func walFile(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), walPrefix) {
			return filepath.Join(dir, e.Name())
		}
	}
	t.Fatal("no WAL file found")
	return ""
}

func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Apply(Op{Op: OpPut, Kind: KindPolicy, Key: fmt.Sprintf("p%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	// Simulate a crash mid-append: a partial frame at the tail.
	wal := walFile(t, dir)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x55, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("torn tail must recover cleanly, got %v", err)
	}
	defer st2.Close()
	if got := len(st2.Records(KindPolicy)); got != 3 {
		t.Fatalf("policies = %d, want 3", got)
	}
	if !st2.Stats().RecoveredTorn {
		t.Fatal("RecoveredTorn not reported")
	}
	// The tail was truncated: appending resumes on a clean boundary.
	if err := st2.Apply(Op{Op: OpPut, Kind: KindPolicy, Key: "p3"}); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := len(st3.Records(KindPolicy)); got != 4 {
		t.Fatalf("after resume, policies = %d, want 4", got)
	}
}

func TestStoreInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Apply(Op{Op: OpPut, Kind: KindPolicy, Key: fmt.Sprintf("p%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	wal := walFile(t, dir)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff // inside the first record's payload
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("err = %v, want ErrWALCorrupt", err)
	}
}

func TestStoreManifestCorruptRefused(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("err = %v, want ErrManifestCorrupt", err)
	}
}

// TestStoreManifestRecordsChecked: manifest records pass the rules WAL
// replay applies (kind, key, sequence range), and next_seq must exceed every
// record's seq; a manifest breaking either is refused as ErrManifestCorrupt.
func TestStoreManifestRecordsChecked(t *testing.T) {
	const head = `{"version":1,"gen":0,"created_unix":1,`
	for name, tc := range map[string]struct {
		manifest string
		ok       bool
	}{
		"valid":           {`"next_seq":3,"records":[{"kind":"dataset","key":"d"},{"kind":"release","key":"r","seq":2}]}`, true},
		"keyless max seq": {`"next_seq":0,"records":[{"kind":"dataset","key":"","seq":18446744073709551615}]}`, false},
		"kindless":        {`"next_seq":1,"records":[{"kind":"","key":"d"}]}`, false},
		"max seq":         {`"next_seq":0,"records":[{"kind":"dataset","key":"d","seq":18446744073709551615}]}`, false},
		"stale next_seq":  {`"next_seq":2,"records":[{"kind":"release","key":"r","seq":2}]}`, false},
		"zero next_seq":   {`"next_seq":0,"records":[{"kind":"dataset","key":"d"}]}`, false},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(head+tc.manifest), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(dir, Options{})
			if !tc.ok {
				if !errors.Is(err, ErrManifestCorrupt) {
					t.Fatalf("err = %v, want ErrManifestCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if got := st.NextSeq(); got != 3 {
				t.Errorf("NextSeq = %d, want 3", got)
			}
		})
	}
}

func TestStoreMissingTableRefusedAtBoot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := st.PutTable(testTable(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(Op{Op: OpPut, Kind: KindDataset, Key: "d", Tables: []string{fp}}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := os.Remove(filepath.Join(dir, tablesDir, fp+".tbl")); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if err == nil || !(strings.Contains(err.Error(), "missing table snapshot") || errors.Is(err, ErrUnknownTable)) {
		t.Fatalf("err = %v, want missing-table diagnostic", err)
	}
}

func TestStoreCorruptTableNeverServed(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := st.PutTable(testTable(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(Op{Op: OpPut, Kind: KindDataset, Key: "d", Tables: []string{fp}}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Damage the table snapshot in place (past the header, inside data).
	path := filepath.Join(dir, tablesDir, fp+".tbl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-4] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err) // presence is checked at boot; content at load
	}
	defer st2.Close()
	if _, err := st2.Table(fp); !errors.Is(err, dataset.ErrSnapshotCorrupt) {
		t.Fatalf("Table(corrupt) = %v, want ErrSnapshotCorrupt", err)
	}
}

func TestStoreStaleFilesCleaned(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(Op{Op: OpPut, Kind: KindPolicy, Key: "p"}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Leftovers from a hypothetical interrupted checkpoint.
	for _, name := range []string{manifestName + tmpSuffix, walPrefix + "99999999"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, tablesDir, "x.tbl"+tmpSuffix), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, name := range []string{manifestName + tmpSuffix, walPrefix + "99999999", filepath.Join(tablesDir, "x.tbl"+tmpSuffix)} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("stale file %s survived recovery", name)
		}
	}
}

func TestStoreFsyncObserver(t *testing.T) {
	var observed int
	now := time.Unix(1000, 0)
	st, err := Open(t.TempDir(), Options{
		Now:     func() time.Time { now = now.Add(time.Millisecond); return now },
		OnFsync: func(d time.Duration) { observed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Apply(Op{Op: OpPut, Kind: KindPolicy, Key: "p"}); err != nil {
		t.Fatal(err)
	}
	if observed != 1 {
		t.Fatalf("OnFsync observed %d appends, want 1", observed)
	}
}
