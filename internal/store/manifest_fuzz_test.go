package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenManifest opens a store whose only state is a checkpoint manifest
// of arbitrary bytes. Nothing may panic. Open either refuses, or recovers a
// store in which every record has a kind and a key and NextSeq exceeds every
// recovered sequence number: the invariants WAL replay holds (see
// FuzzReplayWAL). The committed corpus holds a valid manifest and a keyless
// record at the largest sequence number, which once recovered and wrapped
// NextSeq to 0.
func FuzzOpenManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
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
