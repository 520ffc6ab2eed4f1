package metrics

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ppdp/ppdp/internal/algorithms/mondrian"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/synth"
)

// These tests pin the worker-invariance contract of the chunked metric
// scans: the cross-request result cache deliberately excludes Workers from
// its key, so NCP and ExactCount must return bit-identical values for every
// scan-worker bound — not merely close ones. The fixtures exceed
// parallel.MinChunk rows so the chunked paths genuinely run.

func TestNCPWorkerInvariance(t *testing.T) {
	tbl := synth.Hospital(3000, 1)
	hs := synth.HospitalHierarchies()
	res, err := mondrian.Anonymize(tbl, mondrian.Config{K: 10, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NCP(tbl, res.Table, hs)
	if err != nil {
		t.Fatal(err)
	}
	if want <= 0 || want >= 1 {
		t.Fatalf("NCP = %v, expected a value in (0,1) for a k=10 release", want)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		res.Table.SetScanWorkers(workers)
		got, err := NCP(tbl, res.Table, hs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d: NCP = %v, want exactly %v (cache keys assume worker invariance)", workers, got, want)
		}
	}
}

func TestExactCountWorkerInvariance(t *testing.T) {
	tbl := synth.Census(3000, 1)
	w, err := GenerateWorkload(tbl, WorkloadConfig{Queries: 20, Rng: rand.New(rand.NewSource(42))})
	if err != nil {
		t.Fatal(err)
	}
	truths := make([]int, len(w.Queries))
	for i, q := range w.Queries {
		truths[i], err = ExactCount(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		tbl.SetScanWorkers(workers)
		for i, q := range w.Queries {
			got, err := ExactCount(tbl, q)
			if err != nil {
				t.Fatalf("workers=%d query %d: %v", workers, i, err)
			}
			if got != truths[i] {
				t.Errorf("workers=%d query %q: count %d, want %d", workers, q, got, truths[i])
			}
		}
	}
	// Cross-check one worker count against the single-cell reference
	// semantics to guard the chunked matcher loop itself.
	tbl.SetScanWorkers(4)
	for i, q := range w.Queries {
		brute := 0
		for r := 0; r < tbl.Len(); r++ {
			match := true
			for _, c := range q.Conditions {
				col := tbl.Schema().MustIndex(c.Attribute)
				v, err := tbl.Value(r, col)
				if err != nil {
					t.Fatal(err)
				}
				if !matchesExact(v, c) {
					match = false
					break
				}
			}
			if match {
				brute++
			}
		}
		if brute != truths[i] {
			t.Errorf("query %d: brute-force count %d, want %d", i, brute, truths[i])
		}
	}
}

// TestExactCountMatchesCellReference checks ExactCount's per-code masks
// against matchesExact over every row, on a numeric column holding cells
// that do not read as plain numbers: padded spellings, NaN, infinities,
// suppressed and interval cells.
func TestExactCountMatchesCellReference(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "sex", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
	)
	ages := []string{"30", " 30", "30.0", "41", "NaN", "+Inf", "-Inf", "*", "[20-30)", "55 ", "1e1"}
	rng := rand.New(rand.NewSource(3))
	rows := make([]dataset.Row, 400)
	for i := range rows {
		rows[i] = dataset.Row{ages[rng.Intn(len(ages))], []string{"F", "M"}[rng.Intn(2)]}
	}
	tbl, err := dataset.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	queries := []CountQuery{
		{Conditions: []Condition{{Attribute: "age", IsRange: true, Lo: 30, Hi: 31}}},
		{Conditions: []Condition{{Attribute: "age", IsRange: true, Lo: -inf, Hi: inf}}},
		{Conditions: []Condition{{Attribute: "age", IsRange: true, Lo: 0, Hi: inf}, {Attribute: "sex", Equals: "F"}}},
		{Conditions: []Condition{{Attribute: "age", IsRange: true, Lo: 100, Hi: 200}}},
		{Conditions: []Condition{{Attribute: "age", Equals: "*"}, {Attribute: "sex", Equals: "M"}}},
		{Conditions: []Condition{{Attribute: "age", Equals: "99"}}},
	}
	for i, q := range queries {
		got, err := ExactCount(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for r := 0; r < tbl.Len(); r++ {
			row, _ := tbl.Row(r)
			match := true
			for _, c := range q.Conditions {
				match = match && matchesExact(row[tbl.Schema().MustIndex(c.Attribute)], c)
			}
			if match {
				want++
			}
		}
		if got != want {
			t.Errorf("query %d (%s): ExactCount %d, cell reference %d", i, q, got, want)
		}
	}
	if _, err := ExactCount(tbl, CountQuery{Conditions: []Condition{{Attribute: "zip", Equals: "1"}}}); err == nil {
		t.Error("unknown attribute accepted")
	}
}
