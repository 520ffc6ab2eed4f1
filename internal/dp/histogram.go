package dp

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"github.com/ppdp/ppdp/internal/dataset"
)

// Histogram is a noisy frequency table over the cross product of one or more
// categorical (or pre-discretized) attributes.
type Histogram struct {
	// Attributes are the histogram dimensions, in key order.
	Attributes []string
	// Counts maps the signature of the attribute values (dataset.Signature)
	// to the noisy count. Negative noisy counts are clamped to zero when
	// PostProcess is true at release time.
	Counts map[string]float64
	// Epsilon is the budget the release consumed.
	Epsilon float64
}

// Count returns the noisy count of one cell (0 for cells never observed and
// never materialized).
func (h *Histogram) Count(values ...string) float64 {
	return h.Counts[dataset.Signature(values)]
}

// Total returns the sum of all noisy counts.
func (h *Histogram) Total() float64 {
	t := 0.0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// HistogramConfig controls a DP histogram release.
type HistogramConfig struct {
	// Attributes are the histogram dimensions.
	Attributes []string
	// Epsilon is the privacy budget for the whole histogram (cells partition
	// the data, so each cell is perturbed with the full epsilon under
	// parallel composition).
	Epsilon float64
	// PostProcess clamps negative counts to zero (a standard post-processing
	// step that cannot hurt privacy).
	PostProcess bool
	// Rng is the noise source.
	Rng *rand.Rand
}

// ReleaseHistogram publishes a differentially private histogram of the table
// over the configured attributes using the Laplace mechanism with
// sensitivity 1. Noise is drawn cell by cell in GroupBy's class order (by
// value tuple), so a seeded Rng gives a reproducible release.
func ReleaseHistogram(t *dataset.Table, cfg HistogramConfig) (*Histogram, error) {
	if len(cfg.Attributes) == 0 {
		return nil, errors.New("dp: histogram needs at least one attribute")
	}
	mech, err := NewLaplace(cfg.Epsilon, 1, cfg.Rng)
	if err != nil {
		return nil, err
	}
	cells, err := t.GroupBy(cfg.Attributes...)
	if err != nil {
		return nil, err
	}
	noisy := make(map[string]float64, len(cells))
	for _, c := range cells {
		v := mech.Release(float64(c.Size()))
		if cfg.PostProcess && v < 0 {
			v = 0
		}
		noisy[dataset.Signature(c.Values)] = v
	}
	return &Histogram{
		Attributes: append([]string(nil), cfg.Attributes...),
		Counts:     noisy,
		Epsilon:    cfg.Epsilon,
	}, nil
}

// ContingencyRelease holds a set of noisy pairwise contingency tables used by
// the synthetic-data generator: the marginal of a root attribute and one
// table per (root, other) attribute pair.
type ContingencyRelease struct {
	// Root is the attribute whose marginal anchors the chain.
	Root string
	// RootMarginal is the noisy marginal of Root.
	RootMarginal *Histogram
	// Pairs maps each non-root attribute to the noisy (Root, attribute)
	// contingency table.
	Pairs map[string]*Histogram
	// Epsilon is the total sequential budget consumed.
	Epsilon float64
}

// SyntheticConfig controls marginal-based DP synthetic data generation.
type SyntheticConfig struct {
	// Attributes are the columns to synthesize; when empty all columns are
	// used.
	Attributes []string
	// Root is the attribute anchoring the dependency chain; when empty the
	// first attribute is used.
	Root string
	// Epsilon is the total privacy budget, split evenly between the root
	// marginal and the pairwise tables (sequential composition).
	Epsilon float64
	// Rows is the number of synthetic rows to sample; when 0 the original
	// row count is used.
	Rows int
	// Rng drives both the noise and the sampling.
	Rng *rand.Rand
}

// Synthesize releases a differentially private synthetic table: it measures a
// noisy marginal of the root attribute and noisy pairwise contingency tables
// (root, other) for every other attribute, then samples rows attribute by
// attribute from those distributions. Because the sampled rows are a function
// only of the noisy measurements, the release inherits their differential
// privacy guarantee.
func Synthesize(t *dataset.Table, cfg SyntheticConfig) (*dataset.Table, *ContingencyRelease, error) {
	attrs := cfg.Attributes
	if len(attrs) == 0 {
		attrs = t.Schema().Names()
	}
	if len(attrs) == 0 {
		return nil, nil, errors.New("dp: nothing to synthesize")
	}
	root := cfg.Root
	if root == "" {
		root = attrs[0]
	}
	if cfg.Epsilon <= 0 {
		return nil, nil, fmt.Errorf("%w: %v", ErrEpsilon, cfg.Epsilon)
	}
	rng := cfg.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	rootFound := false
	for _, a := range attrs {
		if a == root {
			rootFound = true
		}
	}
	if !rootFound {
		return nil, nil, fmt.Errorf("dp: root attribute %q not among synthesized attributes", root)
	}

	// Budget split: one share for the root marginal plus one per pair.
	shares := 1 + (len(attrs) - 1)
	perMeasure := cfg.Epsilon / float64(shares)

	rootMarginal, err := ReleaseHistogram(t, HistogramConfig{
		Attributes:  []string{root},
		Epsilon:     perMeasure,
		PostProcess: true,
		Rng:         rng,
	})
	if err != nil {
		return nil, nil, err
	}
	pairs := make(map[string]*Histogram)
	for _, a := range attrs {
		if a == root {
			continue
		}
		h, err := ReleaseHistogram(t, HistogramConfig{
			Attributes:  []string{root, a},
			Epsilon:     perMeasure,
			PostProcess: true,
			Rng:         rng,
		})
		if err != nil {
			return nil, nil, err
		}
		pairs[a] = h
	}
	release := &ContingencyRelease{
		Root:         root,
		RootMarginal: rootMarginal,
		Pairs:        pairs,
		Epsilon:      cfg.Epsilon,
	}

	// Build the output schema in the requested attribute order.
	outAttrs := make([]dataset.Attribute, 0, len(attrs))
	for _, a := range attrs {
		attr, err := t.Schema().ByName(a)
		if err != nil {
			return nil, nil, err
		}
		outAttrs = append(outAttrs, attr)
	}
	schema, err := dataset.NewSchema(outAttrs...)
	if err != nil {
		return nil, nil, err
	}
	rows := cfg.Rows
	if rows <= 0 {
		rows = t.Len()
	}
	synthetic := make([]dataset.Row, rows)
	rootValues, rootWeights := histogramDistribution(rootMarginal, nil)
	if len(rootValues) == 0 {
		return nil, nil, errors.New("dp: noisy root marginal is empty")
	}
	for i := range synthetic {
		rootVal := sampleWeighted(rng, rootValues, rootWeights)
		row := make(dataset.Row, len(attrs))
		for j, a := range attrs {
			if a == root {
				row[j] = rootVal
				continue
			}
			values, weights := histogramDistribution(pairs[a], func(sig []string) bool { return sig[0] == rootVal })
			if len(values) == 0 {
				// The noisy slice for this root value is empty; fall back to
				// the attribute's unconditional noisy distribution.
				values, weights = histogramDistribution(pairs[a], nil)
			}
			if len(values) == 0 {
				row[j] = dataset.SuppressedValue
				continue
			}
			row[j] = sampleWeighted(rng, values, weights)
		}
		synthetic[i] = row
	}
	out, err := dataset.FromRows(schema, synthetic)
	if err != nil {
		return nil, nil, err
	}
	return out, release, nil
}

// histogramDistribution extracts (values, weights) of the *last* attribute of
// the histogram, optionally filtering cells by a predicate on the full
// signature. Weights are the noisy counts clamped at zero, summed in
// signature order so the floating-point result does not depend on map order.
func histogramDistribution(h *Histogram, keep func(sig []string) bool) ([]string, []float64) {
	sigs := make([]string, 0, len(h.Counts))
	for sig := range h.Counts {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	agg := make(map[string]float64)
	for _, sig := range sigs {
		c := h.Counts[sig]
		if c <= 0 {
			continue
		}
		parts := dataset.SplitSignature(sig)
		if keep != nil && !keep(parts) {
			continue
		}
		agg[parts[len(parts)-1]] += c
	}
	values := make([]string, 0, len(agg))
	for v := range agg {
		values = append(values, v)
	}
	sort.Strings(values)
	weights := make([]float64, len(values))
	for i, v := range values {
		weights[i] = agg[v]
	}
	return values, weights
}

func sampleWeighted(rng *rand.Rand, values []string, weights []float64) string {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return values[rng.Intn(len(values))]
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return values[i]
		}
	}
	return values[len(values)-1]
}
