package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ppdp/ppdp/internal/algorithms/datafly"
	"github.com/ppdp/ppdp/internal/algorithms/incognito"
	"github.com/ppdp/ppdp/internal/algorithms/samarati"
	"github.com/ppdp/ppdp/internal/algorithms/topdown"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/privacy"
	"github.com/ppdp/ppdp/internal/synth"
)

var updateFullDomainOracle = flag.Bool("update-fulldomain-oracle", false, "rewrite testdata/fulldomain_oracle.txt")

// oracleFixture is one input table of the full-domain oracle matrix.
type oracleFixture struct {
	name      string
	tbl       *dataset.Table
	qi        []string
	hs        *hierarchy.Set
	sensitive string
}

// TestFullDomainOracle pins the observable output of the four full-domain
// lattice algorithms — Datafly, Samarati, Incognito and TopDown — over a
// matrix of datasets, k, suppression budgets, extra criteria and worker
// counts: the released node, the privacy metadata each Result reports and a
// hash of the release's CSV bytes. Any change to the shared search core must
// leave every line of testdata/fulldomain_oracle.txt identical.
func TestFullDomainOracle(t *testing.T) {
	fixtures := []oracleFixture{
		{"census", synth.Census(500, 9), []string{"age", "sex", "education", "marital-status", "race"}, synth.CensusHierarchies(), "salary"},
		{"hospital", synth.Hospital(500, 9), nil, synth.HospitalHierarchies(), "diagnosis"},
	}
	var lines []string
	add := func(head string, fields string, err error) {
		if err != nil {
			fields = "error=" + errClass(err)
		}
		lines = append(lines, head+" "+fields)
	}
	for _, fx := range fixtures {
		for _, k := range []int{2, 5, 10} {
			for _, supp := range []float64{0, 0.02, 0.1} {
				head := fmt.Sprintf("datafly %s k=%d supp=%g", fx.name, k, supp)
				res, err := datafly.Anonymize(fx.tbl, datafly.Config{K: k, QuasiIdentifiers: fx.qi, Hierarchies: fx.hs, MaxSuppression: supp})
				if err == nil {
					add(head, fmt.Sprintf("node=%v suppressed=%d iterations=%d csv=%s", res.Node, res.SuppressedRows, res.Iterations, csvHash(t, res.Table)), nil)
				} else {
					add(head, "", err)
				}
				for _, workers := range []int{1, 4} {
					head := fmt.Sprintf("samarati %s k=%d supp=%g workers=%d", fx.name, k, supp, workers)
					res, err := samarati.Anonymize(fx.tbl, samarati.Config{K: k, QuasiIdentifiers: fx.qi, Hierarchies: fx.hs, MaxSuppression: supp, Workers: workers})
					if err == nil {
						add(head, fmt.Sprintf("node=%v suppressed=%d height=%d evaluated=%d csv=%s", res.Node, res.SuppressedRows, res.Height, res.NodesEvaluated, csvHash(t, res.Table)), nil)
					} else {
						add(head, "", err)
					}
				}
			}
			extras := []struct {
				name     string
				criteria []privacy.Criterion
			}{
				{"none", nil},
				{"l=2", []privacy.Criterion{privacy.DistinctLDiversity{L: 2, Sensitive: fx.sensitive}}},
				{"t=0.3", []privacy.Criterion{privacy.TCloseness{T: 0.3, Sensitive: fx.sensitive}}},
			}
			for _, extra := range extras {
				for _, workers := range []int{1, 4} {
					head := fmt.Sprintf("incognito %s k=%d extra=%s workers=%d", fx.name, k, extra.name, workers)
					res, err := incognito.Anonymize(fx.tbl, incognito.Config{K: k, QuasiIdentifiers: fx.qi, Hierarchies: fx.hs, Extra: extra.criteria, Workers: workers})
					if err == nil {
						add(head, fmt.Sprintf("node=%v minimal=%v evaluated=%d csv=%s", res.Node, res.MinimalNodes, res.NodesEvaluated, csvHash(t, res.Table)), nil)
					} else {
						add(head, "", err)
					}
					head = fmt.Sprintf("topdown %s k=%d extra=%s workers=%d", fx.name, k, extra.name, workers)
					tres, err := topdown.Anonymize(fx.tbl, topdown.Config{K: k, QuasiIdentifiers: fx.qi, Hierarchies: fx.hs, Extra: extra.criteria, Workers: workers})
					if err == nil {
						add(head, fmt.Sprintf("node=%v specializations=%d csv=%s", tres.Node, tres.Specializations, csvHash(t, tres.Table)), nil)
					} else {
						add(head, "", err)
					}
				}
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "fulldomain_oracle.txt")
	if *updateFullDomainOracle {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update-fulldomain-oracle)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("oracle has %d cases, run produced %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("case %d:\n got  %s\n want %s", i, lines[i], wantLines[i])
		}
	}
}

// csvHash returns a short SHA-256 of the table's CSV rendering.
func csvHash(t *testing.T, tbl *dataset.Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))[:16]
}

// errClass names the sentinel an oracle case failed with.
func errClass(err error) string {
	for _, s := range []error{datafly.ErrUnsatisfiable, samarati.ErrUnsatisfiable, incognito.ErrUnsatisfiable, topdown.ErrUnsatisfiable} {
		if errors.Is(err, s) {
			return "unsatisfiable"
		}
	}
	return err.Error()
}
