package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ppdp/ppdp/internal/algorithms/kmember"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/metrics"
	"github.com/ppdp/ppdp/internal/synth"
)

var updateKMemberOracle = flag.Bool("update-kmember-oracle", false, "rewrite testdata/kmember_oracle.txt")

// TestKMemberOracle pins the observable output of greedy k-member
// clustering over census and hospital tables × k × worker count × default
// and explicit quasi-identifiers: the cluster count, the release's NCP and a
// hash of its CSV bytes. A last fixture holds numeric quasi-identifier cells
// that do not parse ("*", an interval) and NaN cells, pinning the
// maximal-spread loss of unparseable values and the NaN comparisons. Every
// line of testdata/kmember_oracle.txt must stay identical; re-record on
// purpose only, with -update-kmember-oracle.
func TestKMemberOracle(t *testing.T) {
	fixtures := []oracleFixture{
		{"census", synth.Census(400, 9), []string{"age", "sex", "education", "marital-status", "race"}, synth.CensusHierarchies(), ""},
		{"hospital", synth.Hospital(400, 9), []string{"age", "zip"}, synth.HospitalHierarchies(), ""},
		{"hospital-unparseable", unparseableAges(t, synth.Hospital(600, 4)), []string{"age", "sex"}, synth.HospitalHierarchies(), ""},
	}
	var lines []string
	for _, fx := range fixtures {
		for _, k := range []int{2, 5, 10, 25} {
			for _, qi := range [][]string{nil, fx.qi} {
				for _, workers := range []int{1, 4} {
					head := fmt.Sprintf("kmember %s k=%d qi=%v workers=%d", fx.name, k, qi, workers)
					res, err := kmember.Anonymize(fx.tbl, kmember.Config{K: k, QuasiIdentifiers: qi, Hierarchies: fx.hs, Workers: workers})
					if err != nil {
						lines = append(lines, head+" error="+err.Error())
						continue
					}
					ncp, err := metrics.NCP(fx.tbl, res.Table, fx.hs)
					if err != nil {
						t.Fatal(err)
					}
					lines = append(lines, fmt.Sprintf("%s clusters=%d ncp=%.12g csv=%s", head, len(res.Groups), ncp, csvHash(t, res.Table)))
				}
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "kmember_oracle.txt")
	if *updateKMemberOracle {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update-kmember-oracle)", err)
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

// unparseableAges overwrites every seventh age with "*", every eleventh with
// an interval and every thirteenth with "NaN" (which parses, as a NaN).
func unparseableAges(t *testing.T, tbl *dataset.Table) *dataset.Table {
	t.Helper()
	col := tbl.Schema().MustIndex("age")
	for r := 0; r < tbl.Len(); r++ {
		var v string
		switch {
		case r%13 == 5:
			v = "NaN"
		case r%11 == 3:
			v = "[20-30)"
		case r%7 == 2:
			v = "*"
		default:
			continue
		}
		if err := tbl.SetValue(r, col, v); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}
