package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, rep *Report) string {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{
		Name:       name,
		Iterations: 100,
		Metrics:    map[string]float64{"ns/op": ns, "allocs/op": allocs},
	}
}

func TestCompareReportsDeltas(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", &Report{Benchmarks: []Benchmark{
		bench("BenchmarkStable-4", 1000, 50),
		bench("BenchmarkFaster-4", 2000, 80),
		bench("BenchmarkRemoved-4", 10, 1),
	}})
	newPath := writeReport(t, dir, "new.json", &Report{Benchmarks: []Benchmark{
		bench("BenchmarkStable-4", 1040, 50), // +4%: inside the default threshold
		bench("BenchmarkFaster-4", 1000, 40), // improvement
		bench("BenchmarkAdded-4", 5, 2),      // no baseline
	}})

	var out strings.Builder
	code, err := runCompare([]string{oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit code = %d, want 0 (no regression beyond 10%%):\n%s", code, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"BenchmarkStable-4", "+4.0%",
		"BenchmarkFaster-4", "-50.0%",
		"new benchmark (no baseline)",
		"removed (present only in baseline)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output missing %q:\n%s", want, text)
		}
	}
}

func TestCompareFlagsRegressionBeyondThreshold(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", &Report{Benchmarks: []Benchmark{
		bench("BenchmarkHot-4", 1000, 100),
	}})
	newPath := writeReport(t, dir, "new.json", &Report{Benchmarks: []Benchmark{
		bench("BenchmarkHot-4", 1300, 100), // +30% ns/op
	}})

	var out strings.Builder
	code, err := runCompare([]string{oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit code = %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "<< regression") {
		t.Errorf("output does not flag the regression:\n%s", out.String())
	}

	// A looser threshold accepts the same delta.
	out.Reset()
	code, err = runCompare([]string{"-threshold", "0.5", oldPath, newPath}, &out)
	if err != nil || code != 0 {
		t.Errorf("threshold 0.5: code = %d, err = %v:\n%s", code, err, out.String())
	}
}

func TestCompareArgumentErrors(t *testing.T) {
	var out strings.Builder
	if _, err := runCompare([]string{"only-one.json"}, &out); err == nil {
		t.Error("missing file argument not rejected")
	}
	if _, err := runCompare([]string{"-threshold", "-1", "a.json", "b.json"}, &out); err == nil {
		t.Error("negative threshold not rejected")
	}
	if _, err := runCompare([]string{"/does/not/exist.json", "/nor/this.json"}, &out); err == nil {
		t.Error("unreadable files not rejected")
	}
}

// TestCompareJoinsAcrossGOMAXPROCS: a baseline recorded at GOMAXPROCS=1
// (names without a suffix) still compares against a run at GOMAXPROCS=2
// (names ending in -2), and the header names both core counts.
func TestCompareJoinsAcrossGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", &Report{MaxProcs: 1, Benchmarks: []Benchmark{
		bench("BenchmarkHot", 1000, 100),
		bench("BenchmarkSub/rows=10", 50, 5),
	}})
	newPath := writeReport(t, dir, "new.json", &Report{MaxProcs: 2, Benchmarks: []Benchmark{
		bench("BenchmarkHot-2", 1300, 100), // +30% ns/op
		bench("BenchmarkSub/rows=10-2", 50, 5),
	}})
	var out strings.Builder
	code, err := runCompare([]string{oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if code != 1 || !strings.Contains(text, "<< regression") {
		t.Errorf("exit code = %d, want the +30%% flagged:\n%s", code, text)
	}
	for _, want := range []string{"GOMAXPROCS=1", "GOMAXPROCS=2", "BenchmarkSub/rows=10-2"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "no baseline") || strings.Contains(text, "removed") {
		t.Errorf("suffix-only name difference reported as added/removed:\n%s", text)
	}
}

// TestCompareFlagsAnyAllocRise: allocs/op is compared exactly — one more
// allocation is a regression however small its fraction, and so is the
// first allocation of a benchmark that allocated nothing — while ns/op
// keeps the threshold.
func TestCompareFlagsAnyAllocRise(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", &Report{Benchmarks: []Benchmark{
		bench("BenchmarkOneMore-4", 1000, 1000),
		bench("BenchmarkFromZero-4", 1000, 0),
		bench("BenchmarkStillZero-4", 1000, 0),
		bench("BenchmarkFewer-4", 1000, 10),
	}})
	newPath := writeReport(t, dir, "new.json", &Report{Benchmarks: []Benchmark{
		bench("BenchmarkOneMore-4", 1000, 1001), // +0.1% allocs
		bench("BenchmarkFromZero-4", 1000, 1),   // first allocation
		bench("BenchmarkStillZero-4", 1050, 0),  // +5% ns/op, inside the threshold
		bench("BenchmarkFewer-4", 1000, 9),      // improvement
	}})
	var out strings.Builder
	code, err := runCompare([]string{"-threshold", "0.5", oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if code != 1 {
		t.Errorf("exit code = %d, want 1:\n%s", code, text)
	}
	flagged := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "<< regression") {
			flagged[strings.Fields(line)[0]+" "+strings.Fields(line)[1]] = true
		}
	}
	want := map[string]bool{"BenchmarkOneMore-4 allocs/op": true, "BenchmarkFromZero-4 allocs/op": true}
	if !reflect.DeepEqual(flagged, want) {
		t.Errorf("flagged %v, want %v:\n%s", flagged, want, text)
	}
	if !strings.Contains(text, "2 metric(s) regressed") {
		t.Errorf("summary does not count both alloc rises:\n%s", text)
	}
}

// TestMannWhitneyP checks the U test against values worked out by hand: the
// exact tail of U for tie-free samples, the normal approximation with tie
// and continuity corrections, and its symmetry in the two sides.
func TestMannWhitneyP(t *testing.T) {
	cases := []struct {
		name string
		x, y []float64
		want float64
	}{
		// U = 0 is 1 of the C(6,3) = 20 orderings on each tail.
		{"disjoint-3+3", []float64{1, 2, 3}, []float64{4, 5, 6}, 2.0 / 20},
		// U = 0 again, 1 of C(12,6) = 924 orderings on each tail.
		{"disjoint-6+6", []float64{1, 2, 3, 4, 5, 6}, []float64{7, 8, 9, 10, 11, 12}, 2.0 / 924},
		// U = 12 of 36: 182 of the 924 orderings lie at or below it.
		{"overlap-6+6", []float64{100, 100.5, 101, 200, 201, 202}, []float64{99, 101.5, 199, 230, 231, 232}, 364.0 / 924},
		// Ranks 1, 3, 3, 5.5 give U = 2.5; ties t = 3, 2, 2 give
		// σ = sqrt(16/12·(9 − 36/56)) and z = (8 − 2.5 − 0.5)/σ.
		{"ties", []float64{1, 2, 2, 3}, []float64{2, 3, 4, 4}, 0.134169},
		{"all-equal", []float64{5, 5, 5}, []float64{5, 5}, 1},
	}
	for _, tc := range cases {
		for _, p := range []float64{mannWhitneyP(tc.x, tc.y), mannWhitneyP(tc.y, tc.x)} {
			if math.Abs(p-tc.want) > 1e-6 {
				t.Errorf("%s: p = %v, want %v", tc.name, p, tc.want)
			}
		}
	}
}

// sampled is bench with its ns/op samples kept, as fold records them.
func sampled(name string, allocs float64, ns ...float64) Benchmark {
	b := bench(name, 0, allocs)
	b.NsSamples = ns
	b.Metrics["ns/op"] = median(slices.Clone(ns))
	return b
}

// TestCompareJudgesNsOpWithTheUTest: where both records keep their ns/op
// samples, a significant +29% shift is flagged, a +42% median move whose
// samples overlap prints "~" and is not, and records without samples on one
// side keep the threshold rule.
func TestCompareJudgesNsOpWithTheUTest(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", &Report{Benchmarks: []Benchmark{
		sampled("BenchmarkShift-2", 10, 100, 101, 102, 103, 104, 105),
		sampled("BenchmarkOverlap-2", 10, 100, 100.5, 101, 200, 201, 202),
		bench("BenchmarkOldRecord-2", 1000, 10),
	}})
	newPath := writeReport(t, dir, "new.json", &Report{Benchmarks: []Benchmark{
		sampled("BenchmarkShift-2", 10, 130, 131, 132, 133, 134, 135),
		sampled("BenchmarkOverlap-2", 10, 99, 101.5, 199, 230, 231, 232),
		sampled("BenchmarkOldRecord-2", 10, 1300, 1300, 1300),
	}})
	var out strings.Builder
	code, err := runCompare([]string{oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if code != 1 || !strings.Contains(text, "2 metric(s) regressed") {
		t.Errorf("exit code = %d, want 1 with two regressions:\n%s", code, text)
	}
	lines := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[1] == "ns/op" {
			lines[f[0]] = line
		}
	}
	for name, want := range map[string][]string{
		"BenchmarkShift-2":     {"+29.3%", "(p=0.002 n=6+6)", "<< regression"},
		"BenchmarkOverlap-2":   {" ~ ", "(p=0.394 n=6+6)"},
		"BenchmarkOldRecord-2": {"+30.0%", "<< regression"},
	} {
		for _, w := range want {
			if !strings.Contains(lines[name], w) {
				t.Errorf("%s line %q lacks %q", name, lines[name], w)
			}
		}
	}
	if strings.Contains(lines["BenchmarkOverlap-2"], "regression") || strings.Contains(lines["BenchmarkOldRecord-2"], "p=") {
		t.Errorf("U test misapplied:\n%s", text)
	}
}
