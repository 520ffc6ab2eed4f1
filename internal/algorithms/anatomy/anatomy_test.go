package anatomy

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/synth"
	"github.com/ppdp/ppdp/internal/testctx"
)

func TestAnonymizeLDiverseGroups(t *testing.T) {
	tbl := synth.Hospital(1000, 1)
	res, err := Anonymize(tbl, Config{L: 3})
	if err != nil {
		t.Fatalf("Anonymize: %v", err)
	}
	if res.Sensitive != "diagnosis" {
		t.Errorf("sensitive = %q", res.Sensitive)
	}
	covered := 0
	for _, g := range res.Groups {
		if len(g.Counts) < 3 {
			t.Errorf("group %d has only %d distinct sensitive values", g.ID, len(g.Counts))
		}
		total := 0
		for _, n := range g.Counts {
			total += n
		}
		if total != len(g.Rows) {
			t.Errorf("group %d histogram sums to %d, has %d rows", g.ID, total, len(g.Rows))
		}
		covered += len(g.Rows)
	}
	if covered != tbl.Len() {
		t.Errorf("groups cover %d rows, want %d", covered, tbl.Len())
	}
	if res.QIT.Len() != tbl.Len() {
		t.Errorf("QIT has %d rows, want %d", res.QIT.Len(), tbl.Len())
	}
	// The QIT must not contain the sensitive column.
	if res.QIT.Schema().Has("diagnosis") {
		t.Error("QIT leaked the sensitive attribute")
	}
	if !res.ST.Schema().Has("diagnosis") || !res.ST.Schema().Has("group") {
		t.Error("ST missing expected columns")
	}
}

func TestSTHistogramMatchesOriginal(t *testing.T) {
	tbl := synth.Hospital(800, 2)
	res, err := Anonymize(tbl, Config{L: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Summing the ST counts per sensitive value must reproduce the original
	// marginal distribution exactly: Anatomy does not distort the data.
	want, _ := tbl.Frequencies("diagnosis")
	got := make(map[string]int)
	for i := 0; i < res.ST.Len(); i++ {
		row, _ := res.ST.Row(i)
		n, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatalf("bad count %q", row[2])
		}
		got[row[1]] += n
	}
	for v, n := range want {
		if got[v] != n {
			t.Errorf("value %q: ST total %d, original %d", v, got[v], n)
		}
	}
}

func TestEstimateCount(t *testing.T) {
	tbl := synth.Hospital(2000, 3)
	res, err := Anonymize(tbl, Config{L: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Query: patients older than 50 with hypertension.
	ageIdx := 0
	for i, a := range res.QuasiIdentifiers {
		if a == "age" {
			ageIdx = i
		}
	}
	pred := func(qi []string) bool {
		age, err := strconv.Atoi(qi[ageIdx])
		return err == nil && age > 50
	}
	est := res.EstimateCount(pred, "hypertension")

	// Ground truth from the original table.
	truth := 0
	ageCol := tbl.Schema().MustIndex("age")
	diagCol := tbl.Schema().MustIndex("diagnosis")
	for i := 0; i < tbl.Len(); i++ {
		row, _ := tbl.Row(i)
		age, _ := strconv.Atoi(row[ageCol])
		if age > 50 && row[diagCol] == "hypertension" {
			truth++
		}
	}
	if truth == 0 {
		t.Skip("no matching records in synthetic draw")
	}
	relErr := abs(est-float64(truth)) / float64(truth)
	if relErr > 0.5 {
		t.Errorf("anatomy estimate %.1f vs truth %d (relative error %.2f too large)", est, truth, relErr)
	}
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func TestConfigErrors(t *testing.T) {
	tbl := synth.Hospital(100, 4)
	if _, err := Anonymize(tbl, Config{L: 1}); !errors.Is(err, ErrConfig) {
		t.Errorf("l=1 error = %v", err)
	}
	if _, err := Anonymize(tbl, Config{L: 2, Sensitive: "missing"}); !errors.Is(err, ErrConfig) {
		t.Errorf("unknown sensitive error = %v", err)
	}
	// A table with no sensitive column.
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
	)
	plain, _ := dataset.FromRows(schema, []dataset.Row{{"1"}, {"2"}})
	if _, err := Anonymize(plain, Config{L: 2}); !errors.Is(err, ErrConfig) {
		t.Errorf("no sensitive column error = %v", err)
	}
}

func TestEligibilityViolation(t *testing.T) {
	// 90% of records share one sensitive value: 2-diverse bucketization is
	// impossible.
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "diag", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
	var rows []dataset.Row
	for i := 0; i < 18; i++ {
		rows = append(rows, dataset.Row{"30", "flu"})
	}
	rows = append(rows, dataset.Row{"40", "hiv"}, dataset.Row{"50", "cancer"})
	tbl, err := dataset.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Anonymize(tbl, Config{L: 2}); !errors.Is(err, ErrEligibility) {
		t.Errorf("expected ErrEligibility, got %v", err)
	}
}

func TestGroupIDsConsistentAcrossTables(t *testing.T) {
	tbl := synth.Hospital(300, 5)
	res, err := Anonymize(tbl, Config{L: 2})
	if err != nil {
		t.Fatal(err)
	}
	qitGroups := make(map[string]int)
	groupCol := res.QIT.Schema().MustIndex("group")
	for i := 0; i < res.QIT.Len(); i++ {
		row, _ := res.QIT.Row(i)
		qitGroups[row[groupCol]]++
	}
	for _, g := range res.Groups {
		if qitGroups[strconv.Itoa(g.ID)] != len(g.Rows) {
			t.Errorf("group %d has %d QIT rows, want %d", g.ID, qitGroups[strconv.Itoa(g.ID)], len(g.Rows))
		}
	}
}

// TestAnonymizeContextCancellation checks the context gate at the
// algorithm's natural unit of work (one bucket round): a canceled run
// returns ctx.Err() and no partial result, deterministically via a
// poll-counting context.
func TestAnonymizeContextCancellation(t *testing.T) {
	tbl := synth.Hospital(600, 1)
	cfg := Config{L: 3}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AnonymizeContext(pre, tbl, cfg)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-canceled: res=%v err=%v, want nil + context.Canceled", res, err)
	}
	for _, n := range []int{1, 5} {
		res, err := AnonymizeContext(testctx.CancelAfter(n), tbl, cfg)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("cancel after %d polls: res=%v err=%v, want nil + context.Canceled", n, res, err)
		}
	}
	if _, err := AnonymizeContext(context.Background(), tbl, cfg); err != nil {
		t.Fatalf("live context: %v", err)
	}
}
