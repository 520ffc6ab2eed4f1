package core

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"github.com/ppdp/ppdp/internal/algorithms/anatomy"
	"github.com/ppdp/ppdp/internal/algorithms/datafly"
	"github.com/ppdp/ppdp/internal/algorithms/incognito"
	"github.com/ppdp/ppdp/internal/algorithms/kmember"
	"github.com/ppdp/ppdp/internal/algorithms/mondrian"
	"github.com/ppdp/ppdp/internal/algorithms/samarati"
	"github.com/ppdp/ppdp/internal/algorithms/topdown"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/synth"
)

// csvOf renders a table for byte-exact comparison.
func csvOf(t *testing.T, tbl *dataset.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRegistryDispatchGolden locks in that the registry-driven pipeline is a
// pure refactor: for every algorithm, core.AnonymizeContext must release a
// byte-identical table (and identical node / suppression accounting) to a
// direct invocation of the algorithm package with the configuration the
// pre-refactor dispatch switch used to build.
func TestRegistryDispatchGolden(t *testing.T) {
	ctx := context.Background()
	tbl := synth.Census(500, 9)
	hs := synth.CensusHierarchies()
	input, err := tbl.DropIdentifiers()
	if err != nil {
		t.Fatal(err)
	}
	const (
		k        = 5
		suppress = 0.02
	)
	// The 5-attribute census QI keeps the full-domain lattices small enough
	// for the exhaustive searches to stay fast under -race.
	qi := []string{"age", "sex", "education", "marital-status", "race"}

	// direct runs one algorithm package exactly as the old switch did and
	// returns the released table plus node/suppression metadata.
	type goldenRun struct {
		alg      Algorithm
		direct   func() (*dataset.Table, []int, int, error)
		viaTable func(rel *Release) *dataset.Table
	}
	microdata := func(rel *Release) *dataset.Table { return rel.Table }
	runs := []goldenRun{
		{Mondrian, func() (*dataset.Table, []int, int, error) {
			res, err := mondrian.AnonymizeContext(ctx, input, mondrian.Config{K: k, QuasiIdentifiers: qi, Hierarchies: hs})
			if err != nil {
				return nil, nil, 0, err
			}
			return res.Table, nil, 0, nil
		}, microdata},
		{Datafly, func() (*dataset.Table, []int, int, error) {
			res, err := datafly.Anonymize(input, datafly.Config{K: k, QuasiIdentifiers: qi, Hierarchies: hs, MaxSuppression: suppress})
			if err != nil {
				return nil, nil, 0, err
			}
			return res.Table, res.Node, res.SuppressedRows, nil
		}, microdata},
		{Samarati, func() (*dataset.Table, []int, int, error) {
			res, err := samarati.Anonymize(input, samarati.Config{K: k, QuasiIdentifiers: qi, Hierarchies: hs, MaxSuppression: suppress})
			if err != nil {
				return nil, nil, 0, err
			}
			return res.Table, res.Node, res.SuppressedRows, nil
		}, microdata},
		{Incognito, func() (*dataset.Table, []int, int, error) {
			res, err := incognito.Anonymize(input, incognito.Config{K: k, QuasiIdentifiers: qi, Hierarchies: hs})
			if err != nil {
				return nil, nil, 0, err
			}
			return res.Table, res.Node, 0, nil
		}, microdata},
		{TopDown, func() (*dataset.Table, []int, int, error) {
			res, err := topdown.Anonymize(input, topdown.Config{K: k, QuasiIdentifiers: qi, Hierarchies: hs})
			if err != nil {
				return nil, nil, 0, err
			}
			return res.Table, res.Node, 0, nil
		}, microdata},
		{KMember, func() (*dataset.Table, []int, int, error) {
			res, err := kmember.Anonymize(input, kmember.Config{K: k, QuasiIdentifiers: qi, Hierarchies: hs})
			if err != nil {
				return nil, nil, 0, err
			}
			return res.Table, nil, 0, nil
		}, microdata},
	}
	for _, run := range runs {
		t.Run(string(run.alg), func(t *testing.T) {
			a, err := New(Config{Algorithm: run.alg, Policy: withSuppression(kPolicy(k), suppress), QuasiIdentifiers: qi, Hierarchies: hs})
			if err != nil {
				t.Fatal(err)
			}
			rel, err := a.AnonymizeContext(ctx, tbl)
			if err != nil {
				t.Fatal(err)
			}
			wantTable, wantNode, wantSuppressed, err := run.direct()
			if err != nil {
				t.Fatal(err)
			}
			got := run.viaTable(rel)
			if got == nil {
				t.Fatal("registry dispatch released no table")
			}
			if !bytes.Equal(csvOf(t, got), csvOf(t, wantTable)) {
				t.Error("registry dispatch table differs from direct invocation")
			}
			if !slices.Equal(rel.Node, wantNode) {
				t.Errorf("node = %v, direct = %v", rel.Node, wantNode)
			}
			if rel.Measured.SuppressedRows != wantSuppressed {
				t.Errorf("suppressed = %d, direct = %d", rel.Measured.SuppressedRows, wantSuppressed)
			}
		})
	}

	// Anatomy needs an l-eligible sensitive distribution; the census salary
	// column is majority-dominated, so its golden check runs on the hospital
	// fixture.
	t.Run("anatomy", func(t *testing.T) {
		htbl := synth.Hospital(500, 9)
		hinput, err := htbl.DropIdentifiers()
		if err != nil {
			t.Fatal(err)
		}
		a, err := New(Config{Algorithm: Anatomy, Policy: &policy.Policy{Criteria: []policy.Criterion{distinctL(3, "")}}})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := a.AnonymizeContext(ctx, htbl)
		if err != nil {
			t.Fatal(err)
		}
		want, err := anatomy.Anonymize(hinput, anatomy.Config{L: 3, Sensitive: "diagnosis"})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csvOf(t, rel.QIT), csvOf(t, want.QIT)) {
			t.Error("registry dispatch QIT differs from direct invocation")
		}
		if !bytes.Equal(csvOf(t, rel.ST), csvOf(t, want.ST)) {
			t.Error("registry dispatch ST differs from direct invocation")
		}
	})
}
