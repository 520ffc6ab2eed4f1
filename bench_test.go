// Package ppdp holds the repository-level benchmark harness: one testing.B
// benchmark per experiment of DESIGN.md (E1–E12), each regenerating the
// corresponding survey table/figure through the internal/experiments runners,
// plus micro-benchmarks for the hot paths (equivalence-class grouping,
// Mondrian partitioning, Laplace noise) that the experiments are built on.
//
// The experiment benchmarks run in "quick" mode so that `go test -bench=.`
// finishes in minutes; pass -ppdp.full to regenerate the full-size tables
// reported in EXPERIMENTS.md.
package ppdp

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"github.com/ppdp/ppdp/internal/algorithms/mondrian"
	"github.com/ppdp/ppdp/internal/core"
	"github.com/ppdp/ppdp/internal/dp"
	"github.com/ppdp/ppdp/internal/experiments"
	"github.com/ppdp/ppdp/internal/generalize"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/privacy"
	"github.com/ppdp/ppdp/internal/synth"
)

// fullRuns switches the experiment benchmarks from quick mode to the
// full-size configurations used for EXPERIMENTS.md.
var fullRuns = flag.Bool("ppdp.full", false, "run experiment benchmarks at full size")

// benchOptions returns the experiment options for benchmarks.
func benchOptions() experiments.Options {
	return experiments.Options{Quick: !*fullRuns, Seed: 42}
}

// benchExperiment runs one experiment per benchmark iteration and reports the
// result rows so the work cannot be optimized away.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opt := benchOptions()
	b.ReportAllocs()
	rows := 0
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, opt)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		rows += len(rep.Rows)
		if i == 0 && testing.Verbose() {
			rep.Print(benchWriter{b})
		}
	}
	b.ReportMetric(float64(rows)/float64(b.N), "result-rows")
}

// benchWriter adapts b.Log to io.Writer for verbose runs.
type benchWriter struct{ b *testing.B }

func (w benchWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

var _ io.Writer = benchWriter{}

// BenchmarkE1InfoLossVsK regenerates E1: information loss vs k for
// full-domain vs multidimensional recoding.
func BenchmarkE1InfoLossVsK(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2RuntimeVsN regenerates E2: runtime scaling with dataset size.
func BenchmarkE2RuntimeVsN(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3ClassificationVsK regenerates E3: classification accuracy vs k.
func BenchmarkE3ClassificationVsK(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4LDiversity regenerates E4: attribute disclosure under
// k-anonymity vs the l-diversity family.
func BenchmarkE4LDiversity(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5TCloseness regenerates E5: t-closeness vs l-diversity on a
// skewed sensitive attribute.
func BenchmarkE5TCloseness(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6AnatomyQueries regenerates E6: aggregate query error of Anatomy
// vs generalization.
func BenchmarkE6AnatomyQueries(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7DeltaPresence regenerates E7: δ-presence bounds vs
// generalization level.
func BenchmarkE7DeltaPresence(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8LinkageRisk regenerates E8: linkage-attack success vs k.
func BenchmarkE8LinkageRisk(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9DPQueryError regenerates E9: DP histogram error vs epsilon.
func BenchmarkE9DPQueryError(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10RandomizedResponse regenerates E10: randomized-response
// estimation error.
func BenchmarkE10RandomizedResponse(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Dimensionality regenerates E11: information loss vs |QI|.
func BenchmarkE11Dimensionality(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12DPSynthetic regenerates E12: DP synthetic data vs k-anonymous
// release.
func BenchmarkE12DPSynthetic(b *testing.B) { benchExperiment(b, "E12") }

// --- micro-benchmarks ------------------------------------------------------

// BenchmarkGroupByQuasiIdentifier measures the cost of equivalence-class
// grouping, the primitive every privacy check depends on.
func BenchmarkGroupByQuasiIdentifier(b *testing.B) {
	tbl := synth.Census(5000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.GroupByQuasiIdentifier(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMondrianK10 measures one full Mondrian run on 5k census rows.
func BenchmarkMondrianK10(b *testing.B) {
	tbl := synth.Census(5000, 1)
	hs := synth.CensusHierarchies()
	qi := []string{"age", "sex", "education", "marital-status", "race"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mondrian.Anonymize(tbl, mondrian.Config{K: 10, QuasiIdentifiers: qi, Hierarchies: hs}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMondrianCensus measures one sequential Mondrian run over all nine
// census quasi-identifiers at k=10: the shape of the service's cold
// anonymize request (5k rows) and of its reconcile after an append (10k
// rows).
func BenchmarkMondrianCensus(b *testing.B) {
	hs := synth.CensusHierarchies()
	for _, rows := range []int{5000, 10000} {
		tbl := synth.Census(rows, 1)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mondrian.Anonymize(tbl, mondrian.Config{K: 10, Hierarchies: hs, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoreAnonymizeCensus measures core.Anonymize on exactly the job of
// internal/server's BenchmarkServeAnonymize: Mondrian at k=10 over all nine
// quasi-identifiers of 5k census rows (seed 42) with the census hierarchies,
// release and measurements included. Beside BenchmarkMondrianCensus and
// BenchmarkServeAnonymize it splits one request's cost into the algorithm,
// core and service layers.
func BenchmarkCoreAnonymizeCensus(b *testing.B) {
	tbl := synth.Census(5000, 42)
	anon, err := core.New(core.Config{
		Policy:      &policy.Policy{Criteria: []policy.Criterion{{Type: policy.KAnonymity, K: 10}}},
		Hierarchies: synth.CensusHierarchies(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := anon.Anonymize(tbl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecodeGroups measures multidimensional recoding alone: 5k census
// rows recoded over the groups of a Mondrian k=10 run, the release step every
// Mondrian and k-member run ends with.
func BenchmarkRecodeGroups(b *testing.B) {
	tbl := synth.Census(5000, 1)
	hs := synth.CensusHierarchies()
	qi := []string{"age", "sex", "education", "marital-status", "race"}
	res, err := mondrian.Anonymize(tbl, mondrian.Config{K: 10, QuasiIdentifiers: qi, Hierarchies: hs})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := generalize.RecodeGroups(tbl, qi, hs, res.Groups); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMondrianTCloseness measures one Mondrian run on 5k census rows
// gated on 0.3-closeness of salary, so every candidate split evaluates the
// t-closeness criterion on both halves.
func BenchmarkMondrianTCloseness(b *testing.B) {
	tbl := synth.Census(5000, 1)
	hs := synth.CensusHierarchies()
	qi := []string{"age", "sex", "education", "marital-status", "race"}
	extra := []privacy.Criterion{privacy.TCloseness{T: 0.3, Sensitive: "salary"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mondrian.Anonymize(tbl, mondrian.Config{K: 10, QuasiIdentifiers: qi, Hierarchies: hs, Extra: extra}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupByCoded measures coded equivalence-class grouping across row
// counts, including the first-call cost of building the dictionary-encoded
// columns (the table is rebuilt per sub-benchmark, the columns are cached
// across iterations exactly as they are in real pipelines).
func BenchmarkGroupByCoded(b *testing.B) {
	for _, rows := range []int{1000, 5000, 20000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			tbl := synth.Census(rows, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tbl.GroupByQuasiIdentifier(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchGroupByWorkers measures the chunked grouping kernel on the 5k census
// fixture at a fixed scan-worker bound (0 resolves to GOMAXPROCS, so the Max
// variant tracks the host in the bench-cores sweep).
func benchGroupByWorkers(b *testing.B, workers int) {
	tbl := synth.Census(5000, 1)
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tbl.SetScanWorkers(workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.GroupByQuasiIdentifier(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupByWorkers1(b *testing.B)   { benchGroupByWorkers(b, 1) }
func BenchmarkGroupByWorkersMax(b *testing.B) { benchGroupByWorkers(b, 0) }

// BenchmarkGroupByCutoffSmall groups a table below the parallel.MinChunk
// threshold with the maximal worker bound: the small-n cutoff must keep it
// at sequential cost (compare with BenchmarkGroupByCoded/rows=1000 at zero
// workers — no goroutine or channel overhead may appear).
func BenchmarkGroupByCutoffSmall(b *testing.B) {
	tbl := synth.Census(1000, 1)
	tbl.SetScanWorkers(runtime.GOMAXPROCS(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.GroupByQuasiIdentifier(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprintRebuild measures a full row-content fold per
// iteration: a projection onto every column shares the columns but not the
// fingerprint state, so each Fingerprint call re-folds all 5k rows from the
// coded columns.
func BenchmarkFingerprintRebuild(b *testing.B) {
	tbl := synth.Census(5000, 1)
	names := tbl.Schema().Names()
	want := tbl.Fingerprint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := tbl.Project(names...)
		if err != nil {
			b.Fatal(err)
		}
		if got := p.Fingerprint(); got != want {
			b.Fatalf("fingerprint drifted: %s != %s", got, want)
		}
	}
}

// BenchmarkAppendTable measures one durable append as the service runs it:
// clone a stored 10k-row census table, append a 50-row batch, fingerprint
// the result and encode its snapshot.
func BenchmarkAppendTable(b *testing.B) {
	all := synth.Census(10050, 1)
	rows := func(lo, hi int) []int {
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		return idx
	}
	base, err := all.Select(rows(0, 10000))
	if err != nil {
		b.Fatal(err)
	}
	batch, err := all.Select(rows(10000, 10050))
	if err != nil {
		b.Fatal(err)
	}
	base.Fingerprint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := base.Clone()
		if err := merged.AppendTable(batch); err != nil {
			b.Fatal(err)
		}
		merged.Fingerprint()
		if err := merged.WriteSnapshot(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMondrianParallel measures full Mondrian runs across row counts
// and worker-pool sizes (workers=1 is the sequential baseline; workers=0
// uses GOMAXPROCS).
func BenchmarkMondrianParallel(b *testing.B) {
	hs := synth.CensusHierarchies()
	qi := []string{"age", "sex", "education", "marital-status", "race"}
	for _, rows := range []int{2000, 5000, 20000} {
		tbl := synth.Census(rows, 1)
		for _, workers := range []int{1, 0} {
			name := fmt.Sprintf("rows=%d/workers=%d", rows, workers)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cfg := mondrian.Config{K: 10, QuasiIdentifiers: qi, Hierarchies: hs, Workers: workers}
					if _, err := mondrian.Anonymize(tbl, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLaplaceRelease measures the Laplace mechanism noise path.
func BenchmarkLaplaceRelease(b *testing.B) {
	mech, err := dp.NewLaplace(1.0, 1.0, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += mech.Release(100)
	}
	_ = sink
}

// BenchmarkSyntheticCensus measures the synthetic data generator itself so
// that experiment timings can be decomposed.
func BenchmarkSyntheticCensus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tbl := synth.Census(2000, int64(i)); tbl.Len() != 2000 {
			b.Fatal("bad generator output")
		}
	}
}
