package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: github.com/ppdp/ppdp
BenchmarkMondrianK10-4   	     171	   6912345 ns/op	 2173554 B/op	   12687 allocs/op
BenchmarkE2RuntimeVsN-4  	       2	 512345678 ns/op	21.00 result-rows	 1234 B/op	   99 allocs/op
PASS
ok  	github.com/ppdp/ppdp	3.210s
`
	rep, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkMondrianK10-4" || b.Iterations != 171 {
		t.Errorf("benchmark[0] = %+v", b)
	}
	if b.Metrics["ns/op"] != 6912345 || b.Metrics["B/op"] != 2173554 || b.Metrics["allocs/op"] != 12687 {
		t.Errorf("metrics = %v", b.Metrics)
	}
	// Custom b.ReportMetric units survive.
	if rep.Benchmarks[1].Metrics["result-rows"] != 21 {
		t.Errorf("custom metric lost: %v", rep.Benchmarks[1].Metrics)
	}
	if rep.Go == "" || rep.MaxProcs < 1 {
		t.Errorf("environment fields missing: %+v", rep)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	rep, err := parse(strings.NewReader("Benchmark\nBenchmarkX abc 1 ns/op\nnot a line\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Errorf("garbage parsed as benchmarks: %+v", rep.Benchmarks)
	}
}

// TestParseFoldsSamples feeds three samples per benchmark, as
// `go test -count=3` prints them, and checks each benchmark becomes one
// entry holding the median of every unit. The folded report then compares
// against a baseline written before folding (no samples field) with one
// line per benchmark and metric, so a regression counts once.
func TestParseFoldsSamples(t *testing.T) {
	input := `pkg: github.com/ppdp/ppdp
BenchmarkA-2   	     100	      3000 ns/op	     500 B/op	      10 allocs/op
BenchmarkA-2   	     120	      1000 ns/op	     700 B/op	      10 allocs/op
BenchmarkA-2   	     110	      2000 ns/op	     600 B/op	      12 allocs/op
BenchmarkB-2   	      10	     50000 ns/op	       7.00 rows	       3 allocs/op
BenchmarkB-2   	      12	     40000 ns/op	       9.00 rows	       3 allocs/op
BenchmarkB-2   	      11	     90000 ns/op	       8.00 rows	       3 allocs/op
PASS
`
	rep, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 || rep.Benchmarks[0].Name != "BenchmarkA-2" || rep.Benchmarks[1].Name != "BenchmarkB-2" {
		t.Fatalf("benchmarks = %+v, want A then B once each", rep.Benchmarks)
	}
	a, b := rep.Benchmarks[0], rep.Benchmarks[1]
	if a.Samples != 3 || a.Iterations != 110 || a.Metrics["ns/op"] != 2000 || a.Metrics["B/op"] != 600 || a.Metrics["allocs/op"] != 10 {
		t.Errorf("A = %+v, want 3 samples of median 110 iterations, 2000 ns/op, 600 B/op, 10 allocs/op", a)
	}
	if b.Samples != 3 || b.Metrics["ns/op"] != 50000 || b.Metrics["rows"] != 8 {
		t.Errorf("B = %+v, want 3 samples of median 50000 ns/op, 8 rows", b)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}

	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	old := `{"go":"go1.22","maxprocs":2,"benchmarks":[
  {"name":"BenchmarkA-2","iterations":100,"metrics":{"ns/op":1500,"allocs/op":10}},
  {"name":"BenchmarkB-2","iterations":10,"metrics":{"ns/op":50000,"allocs/op":3}}]}`
	if err := os.WriteFile(oldPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	newPath := writeReport(t, dir, "new.json", rep)
	var out strings.Builder
	code, err := runCompare([]string{oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 || strings.Count(out.String(), "<< regression") != 1 || strings.Count(out.String(), "BenchmarkA-2 ") != 2 {
		t.Errorf("compare exit %d, want 1 with one regression line (A's ns/op) and two lines for A:\n%s", code, out.String())
	}
}

// TestFoldKeepsNsSamples: a folded entry keeps its ns/op samples in run
// order and their quartiles beside the median.
func TestFoldKeepsNsSamples(t *testing.T) {
	b := fold([]Benchmark{
		{Name: "BenchmarkA-2", Iterations: 1, Metrics: map[string]float64{"ns/op": 3000}},
		{Name: "BenchmarkA-2", Iterations: 1, Metrics: map[string]float64{"ns/op": 1000}},
		{Name: "BenchmarkA-2", Iterations: 1, Metrics: map[string]float64{"ns/op": 2000}},
	})
	if !slices.Equal(b.NsSamples, []float64{3000, 1000, 2000}) || !slices.Equal(b.NsQuartiles, []float64{1500, 2500}) || b.Metrics["ns/op"] != 2000 {
		t.Errorf("folded = %+v, want samples [3000 1000 2000], quartiles [1500 2500], median 2000", b)
	}
}
