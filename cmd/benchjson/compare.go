package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// comparedMetrics are the units the compare subcommand diffs; both are
// smaller-is-better, so a positive delta is a regression. ns/op regresses
// beyond the threshold fraction, and only if the U test finds the delta
// significant where both records keep their samples; allocs/op is counted
// exactly, so any rise of one allocation or more regresses, from zero too.
var comparedMetrics = []string{"ns/op", "allocs/op"}

// runCompare implements `benchjson compare [-threshold F] OLD.json NEW.json`.
// It prints one line per benchmark/metric pair present in both files and
// returns exit code 1 when any ns/op delta exceeds the threshold fraction or
// allocs/op rises by one or more (0 on a clean comparison; hard errors
// surface as error).
func runCompare(args []string, w io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchjson compare", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.10,
		"ns/op regression threshold as a fraction (0.10 flags more than 10% worse); allocs/op flags any rise")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if fs.NArg() != 2 {
		return 0, fmt.Errorf("compare: want OLD.json NEW.json, got %d arguments", fs.NArg())
	}
	if *threshold < 0 {
		return 0, fmt.Errorf("compare: threshold %v must be non-negative", *threshold)
	}
	oldRep, err := readReport(fs.Arg(0))
	if err != nil {
		return 0, err
	}
	newRep, err := readReport(fs.Arg(1))
	if err != nil {
		return 0, err
	}
	regressions := compareReports(oldRep, newRep, *threshold, w)
	if regressions > 0 {
		fmt.Fprintf(w, "%d metric(s) regressed (ns/op beyond %+.0f%% and significant where sampled, or more allocs/op)\n", regressions, *threshold*100)
		return 1, nil
	}
	return 0, nil
}

// readReport loads one benchjson output file.
func readReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareReports prints the delta table for the benchmarks present in both
// reports (in the new report's order) and returns how many metrics regressed:
// ns/op beyond the threshold (and significant, where both sides keep their
// samples), allocs/op by one allocation or more.
// Benchmarks join on their base name (baseName), so a baseline recorded at
// another GOMAXPROCS still compares; the header line then names both values.
// Benchmarks present on only one side are announced but never counted as
// regressions — a renamed or added benchmark must not fail the comparison.
func compareReports(oldRep, newRep *Report, threshold float64, w io.Writer) int {
	if oldRep.MaxProcs != newRep.MaxProcs {
		fmt.Fprintf(w, "baseline ran at GOMAXPROCS=%d, new run at GOMAXPROCS=%d\n", oldRep.MaxProcs, newRep.MaxProcs)
	}
	oldBy := make(map[string]Benchmark, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldBy[baseName(b.Name)] = b
	}
	seen := make(map[string]bool, len(newRep.Benchmarks))
	regressions := 0
	for _, nb := range newRep.Benchmarks {
		seen[baseName(nb.Name)] = true
		ob, ok := oldBy[baseName(nb.Name)]
		if !ok {
			fmt.Fprintf(w, "%-40s new benchmark (no baseline)\n", nb.Name)
			continue
		}
		for _, metric := range comparedMetrics {
			oldV, okOld := ob.Metrics[metric]
			newV, okNew := nb.Metrics[metric]
			if !okOld || !okNew || (oldV == 0 && metric == "ns/op") {
				continue
			}
			regressed := newV-oldV >= 1
			change := fmt.Sprintf("%+7.0f", newV-oldV)
			if oldV != 0 {
				change = fmt.Sprintf("%+7.1f%%", (newV-oldV)/oldV*100)
			}
			mark := ""
			if metric == "ns/op" {
				regressed = (newV-oldV)/oldV > threshold
				if len(ob.NsSamples) > 0 && len(nb.NsSamples) > 0 {
					p := mannWhitneyP(ob.NsSamples, nb.NsSamples)
					if p >= alpha {
						change, regressed = fmt.Sprintf("%8s", "~"), false
					}
					mark = fmt.Sprintf("  (p=%.3f n=%d+%d)", p, len(ob.NsSamples), len(nb.NsSamples))
				}
			}
			if regressed {
				mark += "  << regression"
				regressions++
			}
			fmt.Fprintf(w, "%-40s %-10s %14.1f -> %14.1f  %s%s\n",
				nb.Name, metric, oldV, newV, change, mark)
		}
	}
	for _, ob := range oldRep.Benchmarks {
		if !seen[baseName(ob.Name)] {
			fmt.Fprintf(w, "%-40s removed (present only in baseline)\n", ob.Name)
		}
	}
	return regressions
}
