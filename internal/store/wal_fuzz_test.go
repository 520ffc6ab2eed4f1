package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplayWAL opens a store whose only state is a WAL of arbitrary bytes.
// Nothing may panic. Open either refuses, or recovers a store in which
// every record has a kind and a key and NextSeq exceeds every recovered
// sequence number (a recovered server resumes release ids from it). Frames
// are bounded by walRecordMax and by the input itself, so replay allocates
// at most in proportion to the WAL. The committed corpus holds a valid WAL
// and the records Apply refuses: an empty key, and the largest sequence
// number.
func FuzzReplayWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walPrefix+"00000000"), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{})
		if err != nil {
			return
		}
		defer st.Close()
		next := st.NextSeq()
		for kind, byKey := range st.records {
			for key, r := range byKey {
				if kind == "" || key == "" || r.Kind != kind || r.Key != key {
					t.Fatalf("recovered record with kind %q key %q under %q/%q", r.Kind, r.Key, kind, key)
				}
				if r.Seq >= next {
					t.Fatalf("record %s %q has seq %d, NextSeq %d", kind, key, r.Seq, next)
				}
			}
		}
	})
}
