// Command benchjson converts `go test -bench` text output into a JSON
// record, and diffs two such records. `make bench` pipes the repository
// benchmarks through it to write BENCH_PR*.json files, so the performance
// trajectory of the hot paths is recorded per PR in a machine-readable form;
// the CI bench job then reports regressions with compare (non-gating).
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson > BENCH.json
//	benchjson compare [-threshold 0.10] OLD.json NEW.json
//	benchjson speedup P1.json P2.json P4.json
//	benchjson utest "A1 A2 ..." "B1 B2 ..."
//
// Non-benchmark lines (package headers, PASS/ok) are ignored; every metric
// pair a benchmark reports (ns/op, B/op, allocs/op, custom b.ReportMetric
// units) is preserved under its unit name. The repeated lines of one
// benchmark (`go test -count=N`) fold into one entry: the median of each
// unit and of the iteration counts, with the number of samples, every ns/op
// sample and the ns/op quartiles.
//
// compare prints the per-benchmark ns/op and allocs/op deltas of the
// benchmarks present in both files and exits with status 1 when ns/op
// regressed by more than the threshold (a fraction: 0.10 = +10%) or
// allocs/op rose by one allocation or more (from zero too), so a CI job can
// surface regressions while staying non-gating via continue-on-error. When
// both records keep their ns/op samples, a two-sided Mann–Whitney U test
// judges the ns/op delta first: a delta it does not find significant at
// α = 0.05 prints as `~` and is never flagged.
//
// speedup joins the records of a GOMAXPROCS sweep (scripts/bench_cores.sh)
// on the benchmark base name and prints each benchmark's scaling profile:
// ns/op per core count, speedup and per-core efficiency against the
// fewest-cores record.
//
// utest prints the two-sided Mann–Whitney p-value of two lists of numbers
// (comma- or space-separated), the test compare applies to ns/op samples.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name including the -P GOMAXPROCS suffix.
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps a unit (e.g. "ns/op") to its value.
	Metrics map[string]float64 `json:"metrics"`
	// Samples counts the result lines folded into this entry; records
	// written before folding omit it and hold one sample per entry.
	Samples int `json:"samples,omitempty"`
	// NsSamples lists every ns/op sample folded into this entry, in run
	// order, and NsQuartiles their first and third quartiles (the median is
	// Metrics["ns/op"]). Older records omit both.
	NsSamples   []float64 `json:"ns_samples,omitempty"`
	NsQuartiles []float64 `json:"ns_quartiles,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	// Go is the toolchain that produced the numbers.
	Go string `json:"go"`
	// MaxProcs is runtime.GOMAXPROCS at conversion time — benchmarks ran in
	// the same environment, so it records the parallelism available.
	MaxProcs int `json:"maxprocs"`
	// Benchmarks lists every benchmark once, in order of first appearance.
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	subcommands := map[string]func([]string, io.Writer) (int, error){
		"compare": runCompare, "speedup": runSpeedup, "utest": runUTest,
	}
	if len(os.Args) > 1 && subcommands[os.Args[1]] != nil {
		code, err := subcommands[os.Args[1]](os.Args[2:], os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		os.Exit(code)
	}
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output and extracts the benchmark lines,
// folding the samples of each benchmark (see fold).
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Go: runtime.Version(), MaxProcs: runtime.GOMAXPROCS(0), Benchmarks: []Benchmark{}}
	samples := map[string][]Benchmark{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: fields[0], Iterations: iters, Metrics: make(map[string]float64, (len(fields)-2)/2)}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		if !ok {
			continue
		}
		if _, seen := samples[b.Name]; !seen {
			order = append(order, b.Name)
		}
		samples[b.Name] = append(samples[b.Name], b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range order {
		rep.Benchmarks = append(rep.Benchmarks, fold(samples[name]))
	}
	return rep, nil
}

// fold merges the samples of one benchmark into one entry: the median
// iteration count and the median of each unit over the samples reporting it,
// plus the ns/op samples themselves and their quartiles.
func fold(samples []Benchmark) Benchmark {
	iters := make([]float64, len(samples))
	units := map[string][]float64{}
	for i, s := range samples {
		iters[i] = float64(s.Iterations)
		for unit, v := range s.Metrics {
			units[unit] = append(units[unit], v)
		}
	}
	out := Benchmark{Name: samples[0].Name, Iterations: int64(median(iters)),
		Metrics: make(map[string]float64, len(units)), Samples: len(samples)}
	// median sorts each unit's values in place, so keep the run order first.
	out.NsSamples = slices.Clone(units["ns/op"])
	for unit, vs := range units {
		out.Metrics[unit] = median(vs)
	}
	if ns := units["ns/op"]; len(ns) > 0 {
		out.NsQuartiles = []float64{quantile(ns, 0.25), quantile(ns, 0.75)}
	}
	return out
}

// quantile returns the p-quantile of sorted, interpolating linearly between
// the two closest ranks.
func quantile(sorted []float64, p float64) float64 {
	pos := p * float64(len(sorted)-1)
	i := int(pos)
	if i+1 == len(sorted) {
		return sorted[i]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// median returns the middle of vs (the mean of the two middle values for an
// even count), sorting vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
