package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
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
