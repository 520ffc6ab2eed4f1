// Package classify provides the lightweight classifiers used to measure the
// classification utility of anonymized releases: a categorical Naive Bayes
// with Laplace smoothing, a mixed-attribute k-nearest-neighbours classifier,
// and a majority-class baseline. The survey's classification-metric
// experiments train on the (anonymized) release and test on held-out records,
// reporting accuracy; generalized values are simply treated as categories,
// which is exactly how the original experiments handle them.
package classify

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"github.com/ppdp/ppdp/internal/dataset"
)

// Common errors.
var (
	// ErrNoLabel is returned when the label attribute is missing.
	ErrNoLabel = errors.New("classify: label attribute not in table")
	// ErrNotTrained is returned when Predict is called before Train.
	ErrNotTrained = errors.New("classify: model has not been trained")
	// ErrEmptyTraining is returned when a training table has no rows.
	ErrEmptyTraining = errors.New("classify: training table is empty")
)

// Classifier is a supervised model over table rows.
type Classifier interface {
	// Name identifies the classifier in experiment output.
	Name() string
	// Train fits the model to the table, predicting the label attribute from
	// the feature attributes.
	Train(t *dataset.Table, features []string, label string) error
	// Predict returns the predicted label for a feature vector given in the
	// training feature order.
	Predict(features []string) (string, error)
}

// ---------------------------------------------------------------------------
// Majority baseline
// ---------------------------------------------------------------------------

// Majority always predicts the most frequent training label. It is the
// baseline every anonymized release must beat for the release to carry any
// classification utility.
type Majority struct {
	label string
}

// Name implements Classifier.
func (m *Majority) Name() string { return "majority" }

// Train implements Classifier.
func (m *Majority) Train(t *dataset.Table, _ []string, label string) error {
	if t.Len() == 0 {
		return ErrEmptyTraining
	}
	freq, err := t.Frequencies(label)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNoLabel, err)
	}
	best, bestN := "", -1
	keys := make([]string, 0, len(freq))
	for v := range freq {
		keys = append(keys, v)
	}
	sort.Strings(keys)
	for _, v := range keys {
		if freq[v] > bestN {
			best, bestN = v, freq[v]
		}
	}
	m.label = best
	return nil
}

// Predict implements Classifier.
func (m *Majority) Predict(_ []string) (string, error) {
	if m.label == "" {
		return "", ErrNotTrained
	}
	return m.label, nil
}

// ---------------------------------------------------------------------------
// Naive Bayes
// ---------------------------------------------------------------------------

// NaiveBayes is a categorical Naive Bayes classifier with Laplace smoothing.
// Numeric and generalized values are treated as opaque categories, which
// keeps the classifier applicable to anonymized releases without special
// casing.
type NaiveBayes struct {
	features []string
	labels   []string
	prior    map[string]float64
	// cond[featureIndex][label][value] = smoothed conditional probability.
	cond []map[string]map[string]float64
	// domain[featureIndex] = number of distinct values (for smoothing of
	// unseen values).
	domain []int
	// trainSize caches the training count per label for unseen-value
	// smoothing.
	labelCount map[string]int
}

// Name implements Classifier.
func (nb *NaiveBayes) Name() string { return "naive-bayes" }

// Train implements Classifier.
func (nb *NaiveBayes) Train(t *dataset.Table, features []string, label string) error {
	if t.Len() == 0 {
		return ErrEmptyTraining
	}
	labels, cols, err := labelAndFeatures(t, features, label)
	if err != nil {
		return err
	}

	labelFreq := make(map[string]int)
	counts := make([]map[string]map[string]int, len(features))
	domains := make([]map[string]struct{}, len(features))
	for i := range features {
		counts[i] = make(map[string]map[string]int)
		domains[i] = make(map[string]struct{})
	}
	for r := 0; r < t.Len(); r++ {
		y := labels.Dict[labels.Codes[r]]
		labelFreq[y]++
		for i, c := range cols {
			v := c.Dict[c.Codes[r]]
			domains[i][v] = struct{}{}
			if counts[i][y] == nil {
				counts[i][y] = make(map[string]int)
			}
			counts[i][y][v]++
		}
	}

	nb.features = append([]string(nil), features...)
	nb.labels = nb.labels[:0]
	for y := range labelFreq {
		nb.labels = append(nb.labels, y)
	}
	sort.Strings(nb.labels)
	nb.prior = make(map[string]float64, len(nb.labels))
	nb.labelCount = make(map[string]int, len(nb.labels))
	for _, y := range nb.labels {
		nb.prior[y] = float64(labelFreq[y]) / float64(t.Len())
		nb.labelCount[y] = labelFreq[y]
	}
	nb.cond = make([]map[string]map[string]float64, len(features))
	nb.domain = make([]int, len(features))
	for i := range features {
		nb.domain[i] = len(domains[i])
		nb.cond[i] = make(map[string]map[string]float64)
		for _, y := range nb.labels {
			nb.cond[i][y] = make(map[string]float64)
			denom := float64(labelFreq[y] + nb.domain[i])
			for v := range domains[i] {
				nb.cond[i][y][v] = (float64(counts[i][y][v]) + 1) / denom
			}
		}
	}
	return nil
}

// Predict implements Classifier.
func (nb *NaiveBayes) Predict(features []string) (string, error) {
	if len(nb.labels) == 0 {
		return "", ErrNotTrained
	}
	if len(features) != len(nb.features) {
		return "", fmt.Errorf("classify: feature vector has %d values, model expects %d", len(features), len(nb.features))
	}
	best := ""
	bestScore := math.Inf(-1)
	for _, y := range nb.labels {
		score := math.Log(nb.prior[y])
		for i, v := range features {
			p, ok := nb.cond[i][y][v]
			if !ok {
				// Unseen value: Laplace mass.
				p = 1 / float64(nb.labelCount[y]+nb.domain[i]+1)
			}
			score += math.Log(p)
		}
		if score > bestScore {
			best, bestScore = y, score
		}
	}
	return best, nil
}

// ---------------------------------------------------------------------------
// k-nearest neighbours
// ---------------------------------------------------------------------------

// KNN is a k-nearest-neighbours classifier with a mixed distance: numeric
// features contribute normalized absolute difference, categorical features
// contribute 0/1 mismatch. Values that fail to parse as numbers (generalized
// intervals) fall back to the categorical distance, so the classifier remains
// usable on anonymized data.
type KNN struct {
	// K is the number of neighbours (default 5).
	K int

	features []string
	numeric  []bool
	scale    []float64
	rows     [][]string
	labels   []string
}

// Name implements Classifier.
func (k *KNN) Name() string { return fmt.Sprintf("%d-nn", k.neighbours()) }

func (k *KNN) neighbours() int {
	if k.K <= 0 {
		return 5
	}
	return k.K
}

// Train implements Classifier.
func (k *KNN) Train(t *dataset.Table, features []string, label string) error {
	if t.Len() == 0 {
		return ErrEmptyTraining
	}
	labels, cols, err := labelAndFeatures(t, features, label)
	if err != nil {
		return err
	}
	k.numeric = make([]bool, len(features))
	k.scale = make([]float64, len(features))
	for i, f := range features {
		attr, _ := t.Schema().ByName(f)
		k.numeric[i] = attr.Type == dataset.Numeric
		k.scale[i] = 1
		if k.numeric[i] {
			lo, hi, err := t.NumericRange(f)
			if err == nil && hi > lo {
				k.scale[i] = hi - lo
			}
		}
	}
	k.features = append([]string(nil), features...)
	k.rows = make([][]string, 0, t.Len())
	k.labels = make([]string, 0, t.Len())
	for r := 0; r < t.Len(); r++ {
		k.rows = append(k.rows, featureVector(cols, r))
		k.labels = append(k.labels, labels.Dict[labels.Codes[r]])
	}
	return nil
}

// Predict implements Classifier.
func (k *KNN) Predict(features []string) (string, error) {
	if len(k.rows) == 0 {
		return "", ErrNotTrained
	}
	if len(features) != len(k.features) {
		return "", fmt.Errorf("classify: feature vector has %d values, model expects %d", len(features), len(k.features))
	}
	type nd struct {
		dist  float64
		label string
	}
	neighbours := make([]nd, 0, len(k.rows))
	for i, row := range k.rows {
		neighbours = append(neighbours, nd{dist: k.distance(row, features), label: k.labels[i]})
	}
	sort.Slice(neighbours, func(a, b int) bool { return neighbours[a].dist < neighbours[b].dist })
	n := k.neighbours()
	if n > len(neighbours) {
		n = len(neighbours)
	}
	votes := make(map[string]int)
	for i := 0; i < n; i++ {
		votes[neighbours[i].label]++
	}
	best, bestN := "", -1
	keys := make([]string, 0, len(votes))
	for v := range votes {
		keys = append(keys, v)
	}
	sort.Strings(keys)
	for _, v := range keys {
		if votes[v] > bestN {
			best, bestN = v, votes[v]
		}
	}
	return best, nil
}

func (k *KNN) distance(a, b []string) float64 {
	d := 0.0
	for i := range a {
		if k.numeric[i] {
			fa, errA := strconv.ParseFloat(strings.TrimSpace(a[i]), 64)
			fb, errB := strconv.ParseFloat(strings.TrimSpace(b[i]), 64)
			if errA == nil && errB == nil {
				d += math.Abs(fa-fb) / k.scale[i]
				continue
			}
		}
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

// Evaluation summarizes a train/test run.
type Evaluation struct {
	// Accuracy is the fraction of test records classified correctly.
	Accuracy float64
	// BaselineAccuracy is the majority-class accuracy on the same test set.
	BaselineAccuracy float64
	// TestSize is the number of evaluated records.
	TestSize int
}

// Evaluate trains the classifier on the training table and measures accuracy
// on the test table. Both tables must contain the feature and label columns;
// they need not share a schema object (a generalized training release and a
// raw test set is the standard setup).
func Evaluate(c Classifier, train, test *dataset.Table, features []string, label string) (*Evaluation, error) {
	if err := c.Train(train, features, label); err != nil {
		return nil, err
	}
	labels, cols, err := labelAndFeatures(test, features, label)
	if err != nil {
		return nil, err
	}
	baseline := &Majority{}
	if err := baseline.Train(train, features, label); err != nil {
		return nil, err
	}
	correct, baseCorrect := 0, 0
	for r := 0; r < test.Len(); r++ {
		vec := featureVector(cols, r)
		want := labels.Dict[labels.Codes[r]]
		pred, err := c.Predict(vec)
		if err != nil {
			return nil, err
		}
		if pred == want {
			correct++
		}
		bp, _ := baseline.Predict(vec)
		if bp == want {
			baseCorrect++
		}
	}
	if test.Len() == 0 {
		return &Evaluation{}, nil
	}
	return &Evaluation{
		Accuracy:         float64(correct) / float64(test.Len()),
		BaselineAccuracy: float64(baseCorrect) / float64(test.Len()),
		TestSize:         test.Len(),
	}, nil
}

// labelAndFeatures returns the label column and the feature columns of t.
func labelAndFeatures(t *dataset.Table, features []string, label string) (*dataset.CodedColumn, []*dataset.CodedColumn, error) {
	labels, err := t.CodedColumnByName(label)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrNoLabel, err)
	}
	cols := make([]*dataset.CodedColumn, len(features))
	for i, f := range features {
		if cols[i], err = t.CodedColumnByName(f); err != nil {
			return nil, nil, err
		}
	}
	return labels, cols, nil
}

// featureVector returns row r's values of the feature columns.
func featureVector(cols []*dataset.CodedColumn, r int) []string {
	vec := make([]string, len(cols))
	for i, c := range cols {
		vec[i] = c.Dict[c.Codes[r]]
	}
	return vec
}

// SplitEvaluate splits the table into train/test with the given fraction and
// evaluates the classifier; it is a convenience for experiments on
// non-anonymized data.
func SplitEvaluate(c Classifier, t *dataset.Table, features []string, label string, trainFrac float64, seed int64) (*Evaluation, error) {
	rng := rand.New(rand.NewSource(seed))
	train, test := t.Split(trainFrac, rng)
	return Evaluate(c, train, test, features, label)
}
