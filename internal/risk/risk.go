// Package risk implements the attack models the PPDP survey uses to motivate
// each privacy model: re-identification (record linkage) risk under the
// prosecutor, journalist and marketer adversaries; a record-linkage attack
// simulator against an identified external register; attribute-disclosure
// (homogeneity) attacks against k-anonymous releases; and table-linkage
// (presence) risk.
package risk

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
)

// ErrNoQuasiIdentifiers is returned when a table has no quasi-identifier
// columns to attack.
var ErrNoQuasiIdentifiers = errors.New("risk: table has no quasi-identifier attributes")

// ReidentificationRisk summarizes record-linkage risk of a release.
type ReidentificationRisk struct {
	// ProsecutorMax is the maximum per-record re-identification probability
	// assuming the attacker knows the target is in the release (1 / smallest
	// class size).
	ProsecutorMax float64
	// ProsecutorAvg is the average per-record probability, which equals the
	// marketer risk: expected fraction of records re-identified by linking
	// every record (number of classes / number of records).
	ProsecutorAvg float64
	// RecordsAtRisk is the fraction of records whose re-identification
	// probability exceeds the supplied threshold.
	RecordsAtRisk float64
	// Threshold echoes the risk threshold used for RecordsAtRisk.
	Threshold float64
	// Classes is the number of equivalence classes.
	Classes int
	// Records is the number of released records.
	Records int
}

// MeasureReidentification computes prosecutor/marketer re-identification risk
// for a release partitioned on its quasi-identifier.
func MeasureReidentification(t *dataset.Table, threshold float64) (*ReidentificationRisk, error) {
	qi := t.Schema().QuasiIdentifierNames()
	if len(qi) == 0 {
		return nil, ErrNoQuasiIdentifiers
	}
	classes, err := t.GroupBy(qi...)
	if err != nil {
		return nil, err
	}
	if len(classes) == 0 {
		return &ReidentificationRisk{Threshold: threshold}, nil
	}
	maxRisk := 0.0
	atRisk := 0
	for _, c := range classes {
		r := 1.0 / float64(c.Size())
		if r > maxRisk {
			maxRisk = r
		}
		if r > threshold {
			atRisk += c.Size()
		}
	}
	return &ReidentificationRisk{
		ProsecutorMax: maxRisk,
		ProsecutorAvg: float64(len(classes)) / float64(t.Len()),
		RecordsAtRisk: float64(atRisk) / float64(t.Len()),
		Threshold:     threshold,
		Classes:       len(classes),
		Records:       t.Len(),
	}, nil
}

// LinkageResult summarizes a simulated record-linkage attack in which an
// adversary holding an identified register (for example a voter list) joins
// it against the released table on the quasi-identifier.
type LinkageResult struct {
	// RegisterSize is the number of identified individuals attacked.
	RegisterSize int
	// Linked is the number of register individuals with at least one
	// matching released record.
	Linked int
	// UniqueLinks is the number of register individuals whose match set has
	// exactly one released record — these are unambiguous re-identifications
	// if the individual is in the release.
	UniqueLinks int
	// ExpectedReidentifications is the expected number of correct
	// re-identifications when the attacker picks uniformly from each match
	// set (journalist model: sum over matched individuals of 1/matchSize).
	ExpectedReidentifications float64
	// AverageMatchSize is the mean size of non-empty match sets.
	AverageMatchSize float64
}

// LinkageAttack simulates joining the identified register against the
// released table. The register holds raw quasi-identifier values; released
// values may be generalized, so matching is hierarchical: a released value
// matches a raw value when they are equal, when the released value is a
// "[lo-hi)" interval containing it, when it is the suppression marker, or
// when the supplied hierarchy generalizes the raw value to the released value
// at some level.
func LinkageAttack(released, register *dataset.Table, hs *hierarchy.Set) (*LinkageResult, error) {
	qi := released.Schema().QuasiIdentifierNames()
	if len(qi) == 0 {
		return nil, ErrNoQuasiIdentifiers
	}
	rel := make([]*dataset.CodedColumn, len(qi))
	reg := make([]*dataset.CodedColumn, len(qi))
	hier := make([]hierarchy.Hierarchy, len(qi))
	for i, a := range qi {
		var err error
		if rel[i], err = released.CodedColumnByName(a); err != nil {
			return nil, err
		}
		if reg[i], err = register.CodedColumnByName(a); err != nil {
			return nil, fmt.Errorf("risk: register is missing quasi-identifier %q: %w", a, err)
		}
		hier[i] = lookupHierarchy(hs, a)
	}

	res := &LinkageResult{RegisterSize: register.Len()}
	totalMatchSize := 0
	for ri := 0; ri < register.Len(); ri++ {
		matches := 0
		for ti := 0; ti < released.Len(); ti++ {
			all := true
			for a := range qi {
				if !ValueMatches(rel[a].Dict[rel[a].Codes[ti]], reg[a].Dict[reg[a].Codes[ri]], hier[a]) {
					all = false
					break
				}
			}
			if all {
				matches++
			}
		}
		if matches > 0 {
			res.Linked++
			totalMatchSize += matches
			res.ExpectedReidentifications += 1.0 / float64(matches)
			if matches == 1 {
				res.UniqueLinks++
			}
		}
	}
	if res.Linked > 0 {
		res.AverageMatchSize = float64(totalMatchSize) / float64(res.Linked)
	}
	return res, nil
}

func lookupHierarchy(hs *hierarchy.Set, attr string) hierarchy.Hierarchy {
	if hs == nil || !hs.Has(attr) {
		return nil
	}
	h, err := hs.Get(attr)
	if err != nil {
		return nil
	}
	return h
}

// ValueMatches reports whether a released (possibly generalized) value is
// consistent with a raw quasi-identifier value.
func ValueMatches(released, raw string, h hierarchy.Hierarchy) bool {
	if released == raw {
		return true
	}
	if released == dataset.SuppressedValue {
		return true
	}
	// Interval match for numeric generalizations.
	if lo, hi, ok := hierarchy.ParseInterval(released); ok {
		if v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64); err == nil {
			if lo == hi {
				return v == lo
			}
			return v >= lo && v < hi
		}
	}
	// Set recoding such as "{a,b,c}".
	if strings.HasPrefix(released, "{") && strings.HasSuffix(released, "}") {
		for _, part := range strings.Split(released[1:len(released)-1], ",") {
			if strings.TrimSpace(part) == raw {
				return true
			}
		}
		return false
	}
	// Hierarchical match: some generalization level of raw equals released.
	if h != nil && h.Contains(raw) {
		for level := 1; level <= h.MaxLevel(); level++ {
			g, err := h.Generalize(raw, level)
			if err != nil {
				return false
			}
			if g == released {
				return true
			}
		}
	}
	return false
}

// HomogeneityResult summarizes an attribute-disclosure attack in which the
// adversary locates the victim's equivalence class and reads off the
// sensitive values present in it.
type HomogeneityResult struct {
	// FullyDisclosed is the fraction of records lying in classes where the
	// sensitive value is unanimous — those individuals' sensitive value is
	// learned with certainty.
	FullyDisclosed float64
	// ExpectedGuessRate is the probability that guessing the most frequent
	// sensitive value of the victim's class is correct, averaged over
	// records. It equals the adversary's expected accuracy.
	ExpectedGuessRate float64
	// WorstClassShare is the highest within-class frequency of any sensitive
	// value across classes (1.0 means at least one homogeneous class).
	WorstClassShare float64
}

// HomogeneityAttack evaluates attribute disclosure of the release for the
// named sensitive attribute.
func HomogeneityAttack(t *dataset.Table, sensitive string) (*HomogeneityResult, error) {
	qi := t.Schema().QuasiIdentifierNames()
	if len(qi) == 0 {
		return nil, ErrNoQuasiIdentifiers
	}
	classes, err := t.GroupBy(qi...)
	if err != nil {
		return nil, err
	}
	res := &HomogeneityResult{}
	if t.Len() == 0 {
		return res, nil
	}
	disclosed := 0
	guessed := 0.0
	for _, c := range classes {
		dist, err := t.SensitiveDistribution(c, sensitive)
		if err != nil {
			return nil, err
		}
		maxCount := 0
		for _, n := range dist {
			if n > maxCount {
				maxCount = n
			}
		}
		share := float64(maxCount) / float64(c.Size())
		if share > res.WorstClassShare {
			res.WorstClassShare = share
		}
		if len(dist) == 1 {
			disclosed += c.Size()
		}
		guessed += float64(maxCount)
	}
	res.FullyDisclosed = float64(disclosed) / float64(t.Len())
	res.ExpectedGuessRate = guessed / float64(t.Len())
	return res, nil
}

// BaselineGuessRate returns the accuracy of guessing the globally most
// frequent sensitive value for every record — the attacker's accuracy without
// seeing the release. Attribute-disclosure gain is the difference between
// HomogeneityResult.ExpectedGuessRate and this baseline.
func BaselineGuessRate(t *dataset.Table, sensitive string) (float64, error) {
	freq, err := t.Frequencies(sensitive)
	if err != nil {
		return 0, err
	}
	if t.Len() == 0 {
		return 0, nil
	}
	max := 0
	for _, n := range freq {
		if n > max {
			max = n
		}
	}
	return float64(max) / float64(t.Len()), nil
}
