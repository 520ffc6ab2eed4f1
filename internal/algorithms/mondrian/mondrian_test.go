package mondrian

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/privacy"
	"github.com/ppdp/ppdp/internal/synth"
)

func TestAnonymizeReachesK(t *testing.T) {
	tbl := synth.Hospital(1000, 1)
	for _, k := range []int{2, 5, 10, 25} {
		res, err := Anonymize(tbl, Config{K: k, Hierarchies: synth.HospitalHierarchies()})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		classes, err := res.Table.GroupByQuasiIdentifier()
		if err != nil {
			t.Fatal(err)
		}
		if got := privacy.MeasureK(classes); got < k {
			t.Errorf("k=%d: min class %d", k, got)
		}
		// Every group is at least k and all rows are covered exactly once.
		covered := make(map[int]bool)
		for _, g := range res.Groups {
			if len(g) < k {
				t.Errorf("k=%d: group of size %d", k, len(g))
			}
			for _, r := range g {
				if covered[r] {
					t.Errorf("row %d in multiple groups", r)
				}
				covered[r] = true
			}
		}
		if len(covered) != tbl.Len() {
			t.Errorf("k=%d: %d rows covered, want %d", k, len(covered), tbl.Len())
		}
		if res.Table.Len() != tbl.Len() {
			t.Errorf("k=%d: released %d rows, want %d (Mondrian never suppresses)", k, res.Table.Len(), tbl.Len())
		}
	}
}

func TestSmallerKSplitsMore(t *testing.T) {
	tbl := synth.Hospital(800, 2)
	res2, err := Anonymize(tbl, Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	res50, err := Anonymize(tbl, Config{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Groups) <= len(res50.Groups) {
		t.Errorf("k=2 produced %d groups, k=50 produced %d; expected more groups for smaller k",
			len(res2.Groups), len(res50.Groups))
	}
	if res2.Splits <= res50.Splits {
		t.Errorf("k=2 splits %d <= k=50 splits %d", res2.Splits, res50.Splits)
	}
}

func TestStrictVsRelaxed(t *testing.T) {
	tbl := synth.Hospital(600, 3)
	relaxed, err := Anonymize(tbl, Config{K: 5, Strict: false})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Anonymize(tbl, Config{K: 5, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	// Relaxed partitioning can always split at least as finely as strict.
	if len(relaxed.Groups) < len(strict.Groups) {
		t.Errorf("relaxed groups %d < strict groups %d", len(relaxed.Groups), len(strict.Groups))
	}
	for _, res := range []*Result{relaxed, strict} {
		classes, _ := res.Table.GroupByQuasiIdentifier()
		if privacy.MeasureK(classes) < 5 {
			t.Error("strict/relaxed release violated 5-anonymity")
		}
	}
}

func TestWithLDiversity(t *testing.T) {
	tbl := synth.Hospital(1000, 4)
	res, err := Anonymize(tbl, Config{
		K:     5,
		Extra: []privacy.Criterion{privacy.DistinctLDiversity{L: 3, Sensitive: "diagnosis"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	classes, err := res.Table.GroupByQuasiIdentifier()
	if err != nil {
		t.Fatal(err)
	}
	l, err := privacy.MeasureDistinctL(res.Table, classes, "diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if l < 3 {
		t.Errorf("release not 3-diverse: min distinct %d", l)
	}
}

func TestWithTCloseness(t *testing.T) {
	tbl := synth.Hospital(1000, 5)
	res, err := Anonymize(tbl, Config{
		K:     5,
		Extra: []privacy.Criterion{privacy.TCloseness{T: 0.35, Sensitive: "diagnosis"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	classes, err := res.Table.GroupByQuasiIdentifier()
	if err != nil {
		t.Fatal(err)
	}
	// The per-partition check uses the original table's global distribution;
	// the released table has the same rows, so the measured EMD must respect
	// the threshold.
	emd, err := privacy.MeasureMaxEMD(res.Table, classes, "diagnosis", false)
	if err != nil {
		t.Fatal(err)
	}
	if emd > 0.35+1e-9 {
		t.Errorf("max EMD %v exceeds 0.35", emd)
	}
}

func TestConfigErrors(t *testing.T) {
	tbl := synth.Hospital(50, 6)
	if _, err := Anonymize(tbl, Config{K: 0}); !errors.Is(err, ErrConfig) {
		t.Errorf("k=0 error = %v", err)
	}
	if _, err := Anonymize(tbl, Config{K: 2, QuasiIdentifiers: []string{"missing"}}); !errors.Is(err, ErrConfig) {
		t.Errorf("unknown QI error = %v", err)
	}
}

func TestUnsatisfiable(t *testing.T) {
	tbl := synth.Hospital(10, 7)
	if _, err := Anonymize(tbl, Config{K: 100}); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("expected ErrUnsatisfiable, got %v", err)
	}
	// An impossible extra criterion is also unsatisfiable.
	_, err := Anonymize(tbl, Config{
		K:     2,
		Extra: []privacy.Criterion{privacy.DistinctLDiversity{L: 50, Sensitive: "diagnosis"}},
	})
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("expected ErrUnsatisfiable for impossible l, got %v", err)
	}
}

func TestNumericRecodingContainsOriginals(t *testing.T) {
	tbl := synth.Hospital(400, 8)
	res, err := Anonymize(tbl, Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	ageCol := res.Table.Schema().MustIndex("age")
	for _, g := range res.Groups {
		for _, r := range g {
			cell, _ := tbl.Value(r, ageCol)
			orig, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("row %d: unparseable original age %q", r, cell)
			}
			released, _ := res.Table.Value(r, ageCol)
			lo, hi, ok := hierarchy.ParseInterval(released)
			if !ok {
				t.Fatalf("unparseable released age %q", released)
			}
			inside := orig == lo || (orig >= lo && orig < hi)
			if !inside {
				t.Errorf("original age %v outside released range %q", orig, released)
			}
		}
	}
}

func TestExplicitQISubsetLeavesOtherColumns(t *testing.T) {
	tbl := synth.Hospital(300, 9)
	res, err := Anonymize(tbl, Config{K: 5, QuasiIdentifiers: []string{"age", "sex"}})
	if err != nil {
		t.Fatal(err)
	}
	origZip, _ := tbl.Column("zip")
	gotZip, _ := res.Table.Column("zip")
	for i := range origZip {
		if origZip[i] != gotZip[i] {
			t.Fatalf("zip changed at row %d", i)
		}
	}
	classes, _ := res.Table.GroupBy("age", "sex")
	if privacy.MeasureK(classes) < 5 {
		t.Error("subset QI release violated 5-anonymity")
	}
}

func TestSortCategorical(t *testing.T) {
	vals := []string{"10", "2", "1"}
	sortCategorical(vals)
	if vals[0] != "1" || vals[1] != "2" || vals[2] != "10" {
		t.Errorf("numeric sort wrong: %v", vals)
	}
	words := []string{"b", "a", "c"}
	sortCategorical(words)
	if words[0] != "a" {
		t.Errorf("lexicographic sort wrong: %v", words)
	}
}

func TestSyntheticTinyTable(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "diag", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
	rows := []dataset.Row{
		{"20", "a"}, {"21", "b"}, {"22", "a"}, {"23", "b"},
		{"60", "a"}, {"61", "b"}, {"62", "a"}, {"63", "b"},
	}
	tbl, _ := dataset.FromRows(schema, rows)
	res, err := Anonymize(tbl, Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) < 2 {
		t.Errorf("expected at least 2 groups, got %d", len(res.Groups))
	}
	classes, _ := res.Table.GroupBy("age")
	if privacy.MeasureK(classes) < 2 {
		t.Error("tiny table release violated 2-anonymity")
	}
}

// TestParallelMatchesSequential is the golden-equivalence test for the
// parallel recursion: for several datasets and configurations, a run with a
// full worker pool must produce a byte-identical released table and identical
// groups and split counts to a forced-sequential run.
func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		tbl  func() *dataset.Table
		cfg  Config
	}{
		{"census-k5", func() *dataset.Table { return synth.Census(4000, 7) },
			Config{K: 5, Hierarchies: synth.CensusHierarchies()}},
		{"census-k2-strict", func() *dataset.Table { return synth.Census(3000, 8) },
			Config{K: 2, Strict: true}},
		{"hospital-k10", func() *dataset.Table { return synth.Hospital(2500, 9) },
			Config{K: 10, Hierarchies: synth.HospitalHierarchies()}},
		{"hospital-ldiv", func() *dataset.Table { return synth.Hospital(2000, 10) },
			Config{K: 5, Extra: []privacy.Criterion{privacy.DistinctLDiversity{L: 2, Sensitive: "diagnosis"}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := tc.tbl()
			seq := tc.cfg
			seq.Workers = 1
			par := tc.cfg
			par.Workers = 8
			a, err := Anonymize(tbl, seq)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Anonymize(tbl, par)
			if err != nil {
				t.Fatal(err)
			}
			if a.Splits != b.Splits {
				t.Errorf("splits differ: sequential %d, parallel %d", a.Splits, b.Splits)
			}
			if !reflect.DeepEqual(a.Groups, b.Groups) {
				t.Fatal("groups differ between sequential and parallel runs")
			}
			if a.Table.Len() != b.Table.Len() {
				t.Fatalf("released sizes differ: %d vs %d", a.Table.Len(), b.Table.Len())
			}
			for r := 0; r < a.Table.Len(); r++ {
				ra, _ := a.Table.Row(r)
				rb, _ := b.Table.Row(r)
				if !reflect.DeepEqual(ra, rb) {
					t.Fatalf("released row %d differs: %v vs %v", r, ra, rb)
				}
			}
		})
	}
}

// TestParallelRace drives the parallel recursion hard enough to surface data
// races under `go test -race`: K=2 on several thousand rows forces a deep
// recursion with many concurrent subtree workers.
func TestParallelRace(t *testing.T) {
	tbl := synth.Census(6000, 11)
	res, err := Anonymize(tbl, Config{K: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[int]bool)
	for _, g := range res.Groups {
		if len(g) < 2 {
			t.Fatalf("group of size %d violates k=2", len(g))
		}
		for _, r := range g {
			if covered[r] {
				t.Fatalf("row %d appears in multiple groups", r)
			}
			covered[r] = true
		}
	}
	if len(covered) != tbl.Len() {
		t.Fatalf("%d rows covered, want %d", len(covered), tbl.Len())
	}
}

// TestWorkersConfig checks the Workers knob validation and defaulting.
func TestWorkersConfig(t *testing.T) {
	tbl := synth.Hospital(200, 12)
	if _, err := Anonymize(tbl, Config{K: 2, Workers: -1}); !errors.Is(err, ErrConfig) {
		t.Errorf("negative workers error = %v, want ErrConfig", err)
	}
	// Workers: 0 defaults to GOMAXPROCS and must still succeed.
	if _, err := Anonymize(tbl, Config{K: 2, Workers: 0}); err != nil {
		t.Errorf("default workers failed: %v", err)
	}
}

// TestContextCancellation checks that a canceled context aborts the run with
// ctx.Err() instead of publishing a partial release.
func TestContextCancellation(t *testing.T) {
	tbl := synth.Census(2000, 7)

	// Already-canceled context: the run must fail fast.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AnonymizeContext(ctx, tbl, Config{K: 5, Hierarchies: synth.CensusHierarchies()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled error = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("pre-canceled run returned a result")
	}

	// Expired deadline: same contract, different cause.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	<-ctx2.Done()
	if _, err := AnonymizeContext(ctx2, tbl, Config{K: 5}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error = %v, want context.DeadlineExceeded", err)
	}

	// A live context must not disturb the run.
	if _, err := AnonymizeContext(context.Background(), tbl, Config{K: 5}); err != nil {
		t.Fatalf("background context run failed: %v", err)
	}
}

// TestContextCancellationMidRunParallel cancels while the worker pool is
// busy; raced under -race this guards the drain path.
func TestContextCancellationMidRunParallel(t *testing.T) {
	tbl := synth.Census(4000, 8)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		// Let some splits happen, then pull the plug.
		time.Sleep(500 * time.Microsecond)
		cancel()
		close(done)
	}()
	res, err := AnonymizeContext(ctx, tbl, Config{K: 2, Workers: 4})
	<-done
	if err == nil {
		// The run may legitimately finish before the cancel lands; then the
		// result must be complete and valid.
		if res == nil || res.Table == nil || res.Table.Len() != tbl.Len() {
			t.Fatal("completed run returned an incomplete table")
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled run returned a result")
	}
}

// BenchmarkSortKeys times splitNumeric's two ways of ordering packed
// (rank, row) keys, shaped like census-5k's age column (13 row bits, 7 rank
// bits), at partition sizes on both sides of radixThreshold.
func BenchmarkSortKeys(b *testing.B) {
	const rowBits, rankBits = 13, 7
	for _, n := range []int{64, 128, 256, 512, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		in := make([]uint64, n)
		for i, row := range rng.Perm(1 << rowBits)[:n] {
			in[i] = uint64(rng.Intn(1<<rankBits))<<rowBits | uint64(row)
		}
		keys := make([]uint64, n)
		sc := &scratch{}
		b.Run(fmt.Sprintf("n=%d/radix", n), func(b *testing.B) {
			for range b.N {
				copy(keys, in)
				sc.radixSort(keys, rowBits+rankBits)
			}
		})
		b.Run(fmt.Sprintf("n=%d/slices", n), func(b *testing.B) {
			for range b.N {
				copy(keys, in)
				slices.Sort(keys)
			}
		})
	}
}

// recursionAllocs runs the recursion of a built runner over every row of
// tbl, sequentially, and returns the allocations of one run with the number
// of groups it settles.
func recursionAllocs(t *testing.T, tbl *dataset.Table, k int) (allocs float64, groups int) {
	t.Helper()
	qi := tbl.Schema().QuasiIdentifierNames()
	r, err := newRunner(context.Background(), tbl, Config{K: k, Workers: 1}, qi)
	if err != nil {
		t.Fatal(err)
	}
	r.sem = make(chan struct{})
	live := make([]int, len(qi))
	for i := range live {
		live[i] = i
	}
	all := make([]int, tbl.Len())
	allocs = testing.AllocsPerRun(5, func() {
		for i := range all {
			all[i] = i
		}
		r.groups, r.rowsDone = nil, 0
		r.partition(all, live, r.newScratch())
	})
	return allocs, len(r.groups)
}

// TestRecursionAllocsDoNotGrowWithSplits: a split writes into the worker's
// scratch and then over its own partition, so the recursion allocates the
// same at k=2 as at k=50, up to the growth of the groups slice, although k=2
// splits many times more often.
func TestRecursionAllocsDoNotGrowWithSplits(t *testing.T) {
	tbl := synth.Census(5000, 1)
	few, _ := recursionAllocs(t, tbl, 50)
	many, groups := recursionAllocs(t, tbl, 2)
	if bound := 2 * math.Log2(float64(groups)); many-few > bound {
		t.Fatalf("recursion allocates %v at k=2 (%d groups) and %v at k=50; want at most %.1f more", many, groups, few, bound)
	}
}

// TestGroupsDoNotAlias: every group is capped at its length, so appending to
// one group leaves every other group as it was; the groups are disjoint and
// cover every row.
func TestGroupsDoNotAlias(t *testing.T) {
	tbl := synth.Census(3000, 5)
	for _, workers := range []int{1, 4} {
		res, err := Anonymize(tbl, Config{K: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, tbl.Len())
		for i, g := range res.Groups {
			if cap(g) != len(g) {
				t.Fatalf("workers=%d: group %d has len %d, cap %d", workers, i, len(g), cap(g))
			}
			for _, row := range g {
				if seen[row] {
					t.Fatalf("workers=%d: row %d in two groups", workers, row)
				}
				seen[row] = true
			}
		}
		if i := slices.Index(seen, false); i >= 0 {
			t.Fatalf("workers=%d: row %d in no group", workers, i)
		}
		before := make([][]int, len(res.Groups))
		for i, g := range res.Groups {
			before[i] = slices.Clone(g)
		}
		for i := range res.Groups {
			res.Groups[i] = append(res.Groups[i], -1)
			for j, g := range res.Groups {
				if j != i && !slices.Equal(g, before[j]) {
					t.Fatalf("workers=%d: appending to group %d changed group %d", workers, i, j)
				}
			}
			res.Groups[i] = res.Groups[i][:len(before[i])]
		}
	}
}
