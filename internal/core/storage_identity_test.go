package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/synth"
)

// identityConfig returns a runnable census configuration for one registered
// algorithm: anatomy buckets the occupation column, republish tracks
// records by the census name column, everything else generalizes the
// five-attribute quasi-identifier.
func identityConfig(t *testing.T, name string) Config {
	t.Helper()
	switch name {
	case "anatomy":
		return Config{Algorithm: Algorithm(name), Sensitive: "occupation", Policy: &policy.Policy{Criteria: []policy.Criterion{distinctL(3, "occupation")}}}
	case "republish":
		return Config{Algorithm: Algorithm(name), Policy: &policy.Policy{Criteria: []policy.Criterion{
			{Type: policy.MInvariance, M: 2, ID: "name", Sensitive: "salary"},
		}}}
	}
	return Config{
		Algorithm:        Algorithm(name),
		Policy:           withSuppression(kPolicy(5), 0.02),
		QuasiIdentifiers: []string{"age", "sex", "education", "marital-status", "race"},
		Hierarchies:      synth.CensusHierarchies(),
		Workers:          2,
	}
}

// censusTwins returns three tables holding the same census cells, stored
// three ways: the generated heap table, its snapshot reopened from disk, and
// a Clone+AppendTable of the two halves of its CSV.
func censusTwins(t *testing.T, n int) map[string]*dataset.Table {
	t.Helper()
	heap := synth.Census(n, 9)

	path := filepath.Join(t.TempDir(), "census.tbl")
	var snap bytes.Buffer
	if err := heap.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mt, err := dataset.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mt.Close() })

	half := func(lo, hi int) *dataset.Table {
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		sub, err := heap.Select(idx)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sub.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := dataset.ReadCSV(heap.Schema(), &buf)
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	appended := half(0, n/2).Clone()
	if err := appended.AppendTable(half(n/2, n)); err != nil {
		t.Fatal(err)
	}
	return map[string]*dataset.Table{"snapshot": mt.Table(), "append": appended, "heap": heap}
}

// releaseBytes renders every released table of a release as CSV, with its
// fingerprint.
func releaseBytes(t *testing.T, rel *Release) []string {
	t.Helper()
	var out []string
	for _, tbl := range []*dataset.Table{rel.Table, rel.QIT, rel.ST} {
		if tbl == nil {
			continue
		}
		out = append(out, string(csvOf(t, tbl)), tbl.Fingerprint())
	}
	return out
}

// TestStorageIdentityAllAlgorithms asserts that where a table's cells are
// stored cannot change a release: for every registered algorithm, the heap
// table, its snapshot twin and an appended twin release the same CSV bytes,
// fingerprints and measurements.
func TestStorageIdentityAllAlgorithms(t *testing.T) {
	twins := censusTwins(t, 400)
	heapFP := twins["heap"].Fingerprint()
	for name, tbl := range twins {
		if got := tbl.Fingerprint(); got != heapFP {
			t.Fatalf("%s twin fingerprint %s, heap %s", name, got, heapFP)
		}
	}
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			a, err := New(identityConfig(t, name))
			if err != nil {
				t.Fatal(err)
			}
			want, err := a.Anonymize(twins["heap"])
			if err != nil {
				t.Fatal(err)
			}
			wantBytes := releaseBytes(t, want)
			if len(wantBytes) == 0 {
				t.Fatal("release holds no table")
			}
			for _, twin := range []string{"snapshot", "append"} {
				got, err := a.Anonymize(twins[twin])
				if err != nil {
					t.Fatalf("%s: %v", twin, err)
				}
				if !reflect.DeepEqual(releaseBytes(t, got), wantBytes) {
					t.Errorf("%s: released tables differ from the heap run", twin)
				}
				if !reflect.DeepEqual(got.Measured, want.Measured) {
					t.Errorf("%s: measurements %+v, heap %+v", twin, got.Measured, want.Measured)
				}
				if !reflect.DeepEqual(got.Node, want.Node) {
					t.Errorf("%s: node %v, heap %v", twin, got.Node, want.Node)
				}
			}
		})
	}
}
