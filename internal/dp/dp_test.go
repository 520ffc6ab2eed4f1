package dp

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/synth"
)

func TestNewLaplaceValidation(t *testing.T) {
	if _, err := NewLaplace(0, 1, nil); !errors.Is(err, ErrEpsilon) {
		t.Errorf("epsilon=0 error = %v", err)
	}
	if _, err := NewLaplace(1, 0, nil); !errors.Is(err, ErrSensitivity) {
		t.Errorf("sensitivity=0 error = %v", err)
	}
	m, err := NewLaplace(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scale() != 0.5 {
		t.Errorf("Scale = %v", m.Scale())
	}
}

func TestLaplaceNoiseStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, _ := NewLaplace(1, 1, rng)
	n := 20000
	sum, sumAbs := 0.0, 0.0
	for i := 0; i < n; i++ {
		noise := m.Release(0)
		sum += noise
		sumAbs += math.Abs(noise)
	}
	mean := sum / float64(n)
	meanAbs := sumAbs / float64(n)
	if math.Abs(mean) > 0.05 {
		t.Errorf("Laplace noise mean %v not near 0", mean)
	}
	// E|X| = b = 1 for Laplace(0,1).
	if math.Abs(meanAbs-1) > 0.1 {
		t.Errorf("Laplace noise mean absolute %v not near 1", meanAbs)
	}
	// Larger epsilon means less noise.
	tight, _ := NewLaplace(10, 1, rand.New(rand.NewSource(2)))
	sumAbsTight := 0.0
	for i := 0; i < n; i++ {
		sumAbsTight += math.Abs(tight.Release(0))
	}
	if sumAbsTight/float64(n) >= meanAbs {
		t.Error("epsilon=10 noise not smaller than epsilon=1 noise")
	}
	if got := len(m.ReleaseAll([]float64{1, 2, 3})); got != 3 {
		t.Errorf("ReleaseAll len = %d", got)
	}
}

func TestGeometricMechanism(t *testing.T) {
	if _, err := NewGeometric(0, 1, nil); !errors.Is(err, ErrEpsilon) {
		t.Errorf("epsilon=0 error = %v", err)
	}
	if _, err := NewGeometric(1, -1, nil); !errors.Is(err, ErrSensitivity) {
		t.Errorf("bad sensitivity error = %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	m, _ := NewGeometric(1, 1, rng)
	n := 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(m.Release(100) - 100)
	}
	if math.Abs(sum/float64(n)) > 0.2 {
		t.Errorf("geometric noise mean %v not near 0", sum/float64(n))
	}
}

func TestExponentialMechanism(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cands := []Candidate{
		{Value: "bad", Utility: 0},
		{Value: "good", Utility: 10},
	}
	good := 0
	for i := 0; i < 2000; i++ {
		c, err := Exponential(cands, 2, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		if c.Value == "good" {
			good++
		}
	}
	if good < 1800 {
		t.Errorf("exponential mechanism picked the high-utility candidate only %d/2000 times", good)
	}
	if _, err := Exponential(nil, 1, 1, rng); !errors.Is(err, ErrEmptyChoices) {
		t.Errorf("empty candidates error = %v", err)
	}
	if _, err := Exponential(cands, 0, 1, rng); !errors.Is(err, ErrEpsilon) {
		t.Errorf("epsilon=0 error = %v", err)
	}
	if _, err := Exponential(cands, 1, 0, rng); !errors.Is(err, ErrSensitivity) {
		t.Errorf("sensitivity=0 error = %v", err)
	}
}

func TestAccountant(t *testing.T) {
	if _, err := NewAccountant(0); !errors.Is(err, ErrEpsilon) {
		t.Errorf("zero budget error = %v", err)
	}
	a, err := NewAccountant(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.4); err != nil {
		t.Fatal(err)
	}
	if err := a.SpendParallel(0.3, 0.2, 0.3); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Spent()-0.7) > 1e-12 {
		t.Errorf("Spent = %v", a.Spent())
	}
	if math.Abs(a.Remaining()-0.3) > 1e-12 {
		t.Errorf("Remaining = %v", a.Remaining())
	}
	if err := a.Spend(0.5); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("over-budget error = %v", err)
	}
	if err := a.Spend(-1); !errors.Is(err, ErrEpsilon) {
		t.Errorf("negative spend error = %v", err)
	}
	if err := a.SpendParallel(); err != nil {
		t.Errorf("empty parallel spend error = %v", err)
	}
	if err := a.SpendParallel(-1); !errors.Is(err, ErrEpsilon) {
		t.Errorf("negative parallel spend error = %v", err)
	}
}

func TestRandomizedResponse(t *testing.T) {
	if _, err := NewRandomizedResponse(0, []string{"a", "b"}, nil); !errors.Is(err, ErrEpsilon) {
		t.Errorf("epsilon=0 error = %v", err)
	}
	if _, err := NewRandomizedResponse(1, []string{"a"}, nil); err == nil {
		t.Error("single-value domain accepted")
	}
	rng := rand.New(rand.NewSource(5))
	rr, err := NewRandomizedResponse(1.0, []string{"yes", "no"}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := rr.TruthProbability()
	want := math.Exp(1) / (math.Exp(1) + 1)
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("TruthProbability = %v, want %v", p, want)
	}

	// Build a true column with 30% "yes" and check the unbiased estimator.
	n := 20000
	truth := make([]string, n)
	for i := range truth {
		if i < n*3/10 {
			truth[i] = "yes"
		} else {
			truth[i] = "no"
		}
	}
	perturbed := rr.PerturbAll(truth)
	est := rr.EstimateFrequencies(perturbed)
	if math.Abs(est["yes"]-float64(n)*0.3) > float64(n)*0.03 {
		t.Errorf("estimated yes count %v, want about %v", est["yes"], float64(n)*0.3)
	}
	if math.Abs(est["yes"]+est["no"]-float64(n)) > float64(n)*0.05 {
		t.Errorf("estimates do not sum to n: %v", est)
	}
}

func TestRandomizedResponseLargerEpsilonMoreTruthful(t *testing.T) {
	f := func(raw uint8) bool {
		eps := 0.1 + float64(raw%50)/10
		rrLow, err := NewRandomizedResponse(eps, []string{"a", "b", "c"}, nil)
		if err != nil {
			return false
		}
		rrHigh, err := NewRandomizedResponse(eps+1, []string{"a", "b", "c"}, nil)
		if err != nil {
			return false
		}
		return rrHigh.TruthProbability() > rrLow.TruthProbability()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReleaseHistogram(t *testing.T) {
	tbl := synth.Hospital(2000, 1)
	rng := rand.New(rand.NewSource(6))
	h, err := ReleaseHistogram(tbl, HistogramConfig{
		Attributes:  []string{"sex"},
		Epsilon:     2.0,
		PostProcess: true,
		Rng:         rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	trueFreq, _ := tbl.Frequencies("sex")
	for v, n := range trueFreq {
		noisy := h.Count(v)
		if math.Abs(noisy-float64(n)) > 20 {
			t.Errorf("noisy count for %q = %v, true %d: error too large for eps=2", v, noisy, n)
		}
		if noisy < 0 {
			t.Errorf("post-processed count negative: %v", noisy)
		}
	}
	if math.Abs(h.Total()-float64(tbl.Len())) > 50 {
		t.Errorf("noisy total %v far from %d", h.Total(), tbl.Len())
	}
	if _, err := ReleaseHistogram(tbl, HistogramConfig{Attributes: nil, Epsilon: 1}); err == nil {
		t.Error("no attributes accepted")
	}
	if _, err := ReleaseHistogram(tbl, HistogramConfig{Attributes: []string{"sex"}, Epsilon: 0}); err == nil {
		t.Error("epsilon=0 accepted")
	}
	if _, err := ReleaseHistogram(tbl, HistogramConfig{Attributes: []string{"missing"}, Epsilon: 1}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

// TestSeededReleasesAreReproducible: one seed yields one release. Noise is
// drawn cell by cell in signature order, so repeated histogram releases with
// the same seed carry identical counts, and the synthetic table sampled from
// them has an identical fingerprint.
func TestSeededReleasesAreReproducible(t *testing.T) {
	tbl := synth.Census(2000, 1)
	var firstCells []HistogramCell
	var firstSynth string
	for run := 0; run < 5; run++ {
		h, err := ReleaseHistogram(tbl, HistogramConfig{
			Attributes: []string{"education", "occupation"},
			Epsilon:    0.5,
			Rng:        rand.New(rand.NewSource(42)),
		})
		if err != nil {
			t.Fatal(err)
		}
		syn, _, err := Synthesize(tbl, SyntheticConfig{
			Attributes: []string{"sex", "education", "occupation", "salary"},
			Epsilon:    1,
			Rows:       500,
			Rng:        rand.New(rand.NewSource(42)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			firstCells, firstSynth = h.Cells, syn.Fingerprint()
			continue
		}
		if !reflect.DeepEqual(h.Cells, firstCells) {
			t.Fatalf("run %d: seed 42 released different histogram counts", run)
		}
		if fp := syn.Fingerprint(); fp != firstSynth {
			t.Fatalf("run %d: seed 42 synthesized fingerprint %s, first run %s", run, fp, firstSynth)
		}
	}
}

func TestHistogramErrorShrinksWithEpsilon(t *testing.T) {
	tbl := synth.Hospital(3000, 2)
	trueFreq, _ := tbl.Frequencies("diagnosis")
	avgErr := func(eps float64, seed int64) float64 {
		h, err := ReleaseHistogram(tbl, HistogramConfig{
			Attributes: []string{"diagnosis"},
			Epsilon:    eps,
			Rng:        rand.New(rand.NewSource(seed)),
		})
		if err != nil {
			t.Fatal(err)
		}
		total, n := 0.0, 0
		for v, c := range trueFreq {
			total += math.Abs(h.Count(v) - float64(c))
			n++
		}
		return total / float64(n)
	}
	// Average over several seeds to keep the comparison stable.
	lowEps, highEps := 0.0, 0.0
	for s := int64(0); s < 10; s++ {
		lowEps += avgErr(0.05, s)
		highEps += avgErr(2.0, s)
	}
	if highEps >= lowEps {
		t.Errorf("average error with eps=2 (%v) not below eps=0.05 (%v)", highEps/10, lowEps/10)
	}
}

func TestSynthesize(t *testing.T) {
	tbl := synth.Hospital(3000, 3)
	rng := rand.New(rand.NewSource(7))
	syn, release, err := Synthesize(tbl, SyntheticConfig{
		Attributes: []string{"sex", "diagnosis"},
		Root:       "sex",
		Epsilon:    4.0,
		Rng:        rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if syn.Len() != tbl.Len() {
		t.Errorf("synthetic rows = %d, want %d", syn.Len(), tbl.Len())
	}
	if release.Epsilon != 4.0 || release.Root != "sex" {
		t.Errorf("release metadata wrong: %+v", release)
	}
	// The synthetic marginal of sex should be within a few percentage points
	// of the original at this generous epsilon.
	origFreq, _ := tbl.Frequencies("sex")
	synFreq, _ := syn.Frequencies("sex")
	for v, n := range origFreq {
		origP := float64(n) / float64(tbl.Len())
		synP := float64(synFreq[v]) / float64(syn.Len())
		if math.Abs(origP-synP) > 0.08 {
			t.Errorf("marginal of %q drifted: %v vs %v", v, origP, synP)
		}
	}
	// Schema of the synthetic table contains only the requested columns.
	if syn.Schema().Len() != 2 {
		t.Errorf("synthetic schema has %d columns", syn.Schema().Len())
	}
}

func TestSynthesizeErrors(t *testing.T) {
	tbl := synth.Hospital(100, 4)
	if _, _, err := Synthesize(tbl, SyntheticConfig{Epsilon: 0}); err == nil {
		t.Error("epsilon=0 accepted")
	}
	if _, _, err := Synthesize(tbl, SyntheticConfig{Epsilon: 1, Attributes: []string{"sex"}, Root: "missing"}); err == nil {
		t.Error("root not among attributes accepted")
	}
	if _, _, err := Synthesize(tbl, SyntheticConfig{Epsilon: 1, Attributes: []string{"missing"}}); err == nil {
		t.Error("unknown attribute accepted")
	}
	// Custom row count.
	syn, _, err := Synthesize(tbl, SyntheticConfig{Epsilon: 2, Attributes: []string{"sex", "diagnosis"}, Rows: 37, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if syn.Len() != 37 {
		t.Errorf("synthetic rows = %d, want 37", syn.Len())
	}
}

func TestHistogramDistributionFiltering(t *testing.T) {
	h := &Histogram{
		Attributes: []string{"a", "b"},
		Cells: []HistogramCell{
			{Values: []string{"x", "p"}, Count: 5},
			{Values: []string{"x", "q"}, Count: 3},
			{Values: []string{"y", "p"}, Count: 2},
			{Values: []string{"y", "q"}, Count: -1}, // clamped cells are skipped
		},
	}
	values, weights := histogramDistribution(h, func(values []string) bool { return values[0] == "x" })
	if len(values) != 2 {
		t.Fatalf("values = %v", values)
	}
	total := weights[0] + weights[1]
	if total != 8 {
		t.Errorf("weights sum = %v", total)
	}
	all, _ := histogramDistribution(h, nil)
	if len(all) != 2 { // p and q aggregated over both roots
		t.Errorf("unfiltered values = %v", all)
	}
}

// TestHistogramCellsAreValueTuples releases a histogram over two columns
// whose value tuples ("a\x1fb", "c") and ("a", "b\x1fc") join to the same
// string under a 0x1f separator. They are distinct cells: at a huge epsilon
// the histogram holds two cells with counts 1 and 2, totalling 3.
func TestHistogramCellsAreValueTuples(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "x", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "y", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
	)
	tbl, err := dataset.FromRows(schema, []dataset.Row{{"a\x1fb", "c"}, {"a", "b\x1fc"}, {"a", "b\x1fc"}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ReleaseHistogram(tbl, HistogramConfig{Attributes: []string{"x", "y"}, Epsilon: 1e9, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(h.Cells))
	}
	if got := h.Total(); math.Abs(got-3) > 1e-6 {
		t.Errorf("Total() = %v, want 3", got)
	}
	if got := h.Count("a\x1fb", "c"); math.Abs(got-1) > 1e-6 {
		t.Errorf(`Count("a\x1fb", "c") = %v, want 1`, got)
	}
	if got := h.Count("a", "b\x1fc"); math.Abs(got-2) > 1e-6 {
		t.Errorf(`Count("a", "b\x1fc") = %v, want 2`, got)
	}
	if got := h.Count("a", "b"); got != 0 {
		t.Errorf(`unobserved Count("a", "b") = %v, want 0`, got)
	}
}
