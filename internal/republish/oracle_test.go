package republish

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/synth"
)

var updatePublishOracle = flag.Bool("update-publish-oracle", false, "rewrite testdata/publish_oracle.txt")

// oracleConfigs are the publisher configurations the golden pins: the
// service's census shape (salary, m=2, every schema QI) and a wider
// occupation signature at m=3 over a few QIs.
var oracleConfigs = []struct {
	name string
	cfg  Config
}{
	{"salary-m2", Config{M: 2, ID: "name"}},
	{"occupation-m3", Config{M: 3, ID: "name", Sensitive: "occupation",
		QuasiIdentifiers: []string{"age", "workclass", "education", "sex", "salary"}}},
}

// censusHistory returns a hand-scripted census history. Release 1 is the
// first 300 individuals; release 2 appends 100 more, deletes two and moves
// one individual's salary and occupation to values outside any signature;
// release 3 has no fresh rows and drops every ">50k" and every "sales"
// individual, so buckets need counterfeits; release 4 appends 300 more.
// Some QI cells hold "*" (the counterfeit padding value), and one real
// individual is named "counterfeit".
func censusHistory(t *testing.T) []*dataset.Table {
	t.Helper()
	pool := synth.Census(700, 7)
	schema := pool.Schema()
	col := func(name string) int { return schema.MustIndex(name) }
	rows := pool.Rows()
	before := slices.Clone(rows[20])
	for _, r := range []int{4, 150, 151, 420, 650} {
		rows[r][col("workclass")] = dataset.SuppressedValue
	}
	for _, r := range []int{7, 360, 699} {
		rows[r][col("education")] = dataset.SuppressedValue
	}
	rows[3][col("name")] = CounterfeitValue
	rows[20][col("salary")] = "unknown"
	rows[20][col("occupation")] = "retired"

	var history []*dataset.Table
	snapshot := func(live []int) {
		out := make([]dataset.Row, len(live))
		for i, r := range live {
			out[i] = rows[r]
		}
		tbl, err := dataset.FromRows(schema, out)
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, tbl)
	}
	span := func(lo, hi int) []int {
		var out []int
		for r := lo; r < hi; r++ {
			out = append(out, r)
		}
		return out
	}

	// The first release sees individual 20 before the change.
	first := make([]dataset.Row, 300)
	copy(first, rows[:300])
	first[20] = before
	tbl, err := dataset.FromRows(schema, first)
	if err != nil {
		t.Fatal(err)
	}
	history = append(history, tbl)

	var live []int
	for _, r := range span(0, 400) {
		if r != 10 && r != 11 {
			live = append(live, r)
		}
	}
	snapshot(live)

	kept := live[:0:0]
	for _, r := range live {
		if rows[r][col("salary")] == ">50k" || rows[r][col("occupation")] == "sales" {
			continue
		}
		kept = append(kept, r)
	}
	live = kept
	snapshot(live)

	live = append(live, span(400, 700)...)
	snapshot(live)
	return history
}

// TestPublishOracle pins every release of censusHistory under each
// oracleConfigs entry: QIT and ST fingerprints, a hash of both tables'
// dictionary encodings (the bytes a stored snapshot holds), counterfeit and
// signature counts, and the invariance verdict. Every line of
// testdata/publish_oracle.txt must stay identical; re-record on purpose
// only, with -update-publish-oracle.
func TestPublishOracle(t *testing.T) {
	history := censusHistory(t)
	var lines []string
	for _, oc := range oracleConfigs {
		pub, err := NewPublisher(oc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, snap := range history {
			rel, err := pub.Publish(snap)
			if err != nil {
				lines = append(lines, fmt.Sprintf("%s rows=%d error=%v", oc.name, snap.Len(), err))
				break
			}
			lines = append(lines, fmt.Sprintf("%s release=%d rows=%d qit=%d qitfp=%s qitenc=%s st=%d stfp=%s stenc=%s counterfeits=%d signatures=%d",
				oc.name, rel.Version, snap.Len(), rel.QIT.Len(), rel.QIT.Fingerprint(), encodingHash(t, rel.QIT),
				rel.ST.Len(), rel.ST.Fingerprint(), encodingHash(t, rel.ST), rel.Counterfeits, len(rel.Signatures)))
		}
		ok, why, err := CheckInvariance(pub.Releases(), oc.cfg.M)
		if err != nil {
			t.Fatal(err)
		}
		line := fmt.Sprintf("%s invariant=%v", oc.name, ok)
		if why != "" {
			line += " " + why
		}
		lines = append(lines, line)
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "publish_oracle.txt")
	if *updatePublishOracle {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update-publish-oracle)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("oracle has %d lines, run produced %d:\n%s", len(wantLines), len(lines), got)
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, lines[i], wantLines[i])
		}
	}
}

// encodingHash hashes every column's dictionary (in code order) and code
// sequence, so two tables with equal cells but different encodings differ.
func encodingHash(t *testing.T, tbl *dataset.Table) string {
	t.Helper()
	h := fnv.New64a()
	for j := 0; j < tbl.Schema().Len(); j++ {
		cc, err := tbl.CodedColumn(j)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d|%q|%v;", j, cc.Dict, cc.Codes)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
