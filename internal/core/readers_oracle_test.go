package core

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ppdp/ppdp/internal/algorithms/anatomy"
	"github.com/ppdp/ppdp/internal/algorithms/mondrian"
	"github.com/ppdp/ppdp/internal/classify"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/generalize"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/lattice"
	"github.com/ppdp/ppdp/internal/privacy"
	"github.com/ppdp/ppdp/internal/risk"
	"github.com/ppdp/ppdp/internal/synth"
)

var updateReadersOracle = flag.Bool("update-readers-oracle", false, "rewrite testdata/readers_oracle.txt")

// TestReadersOracle pins the exact outputs of the table readers that sit
// outside the anonymization pipeline proper: Anatomy's QIT/ST pair and its
// count estimates, the δ-presence bounds, the linkage attack, the Naive
// Bayes and k-NN evaluations, and the identified register the linkage
// experiments attack. Every line of testdata/readers_oracle.txt must stay
// identical; re-record on purpose only, with -update-readers-oracle.
func TestReadersOracle(t *testing.T) {
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }

	census := dropIDs(t, synth.Census(600, 9))
	hospital := dropIDs(t, synth.Hospital(600, 9))

	// Anatomy: census bucketizes on occupation (its salary column is too
	// skewed to be l-eligible), hospital on its schema's diagnosis.
	anatomyFixtures := []struct {
		name, sensitive string
		tbl             *dataset.Table
		qi              []string
	}{
		{"census", "occupation", census, []string{"age", "sex", "education"}},
		{"hospital", "", hospital, []string{"age", "zip"}},
	}
	for _, fx := range anatomyFixtures {
		for _, l := range []int{2, 3, 5} {
			for _, qi := range [][]string{nil, fx.qi} {
				head := fmt.Sprintf("anatomy %s l=%d qi=%v", fx.name, l, qi)
				res, err := anatomy.Anonymize(fx.tbl, anatomy.Config{L: l, Sensitive: fx.sensitive, QuasiIdentifiers: qi})
				if err != nil {
					add("%s error=%v", head, errors.Is(err, anatomy.ErrEligibility))
					continue
				}
				add("%s groups=%d qit=%s qitfp=%s st=%s stfp=%s est=%s", head, len(res.Groups),
					csvHash(t, res.QIT), res.QIT.Fingerprint(), csvHash(t, res.ST), res.ST.Fingerprint(),
					anatomyEstimates(t, fx.tbl, res))
			}
		}
	}

	// δ-presence: a 30% private sample of a public census, both recoded to
	// the same full-domain node, as in experiment E7.
	public := dropIDs(t, synth.Census(1000, 5))
	private := public.Sample(300, rand.New(rand.NewSource(5)))
	hs := synth.CensusHierarchies()
	qi := []string{"age", "sex", "education"}
	for _, node := range []lattice.Node{{0, 0, 0}, {1, 0, 1}, {2, 1, 2}, {4, 1, 2}} {
		pub := onlyQI(t, recode(t, public, qi, hs, node), qi)
		priv := onlyQI(t, recode(t, private, qi, hs, node), qi)
		lo, hi, err := privacy.MeasurePresence(priv, pub)
		if err != nil {
			t.Fatal(err)
		}
		v, err := privacy.DeltaPresence{DeltaMin: 0.2, DeltaMax: 0.5, Public: pub}.Evaluate(priv, nil)
		if err != nil {
			t.Fatal(err)
		}
		add("presence node=%v min=%v max=%v check(0.2,0.5)=%v", node, lo, hi, v.Satisfied)
	}

	// Identified registers and the linkage attack against raw and
	// Mondrian-generalized releases, as in experiment E8.
	rawHospital := synth.Hospital(400, 3)
	rawCensus := synth.Census(300, 3)
	for _, rc := range []struct {
		name    string
		tbl     *dataset.Table
		overlap float64
		decoys  int
	}{
		{"hospital", rawHospital, 0.3, 40},
		{"hospital", rawHospital, 1, 0},
		{"census", rawCensus, 0.25, 60},
	} {
		reg, err := synth.IdentifiedRegister(rc.tbl, rc.overlap, rc.decoys, 7)
		if err != nil {
			t.Fatal(err)
		}
		add("register %s overlap=%v decoys=%d rows=%d fp=%s csv=%s", rc.name, rc.overlap, rc.decoys, reg.Len(), reg.Fingerprint(), csvHash(t, reg))
	}
	register, err := synth.IdentifiedRegister(rawHospital, 0.3, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	hhs := synth.HospitalHierarchies()
	for _, k := range []int{1, 5, 10} {
		released := dropIDs(t, rawHospital)
		if k > 1 {
			res, err := mondrian.Anonymize(rawHospital, mondrian.Config{K: k, Hierarchies: hhs})
			if err != nil {
				t.Fatal(err)
			}
			released = res.Table
		}
		for _, withHS := range []bool{true, false} {
			h := hhs
			if !withHS {
				h = nil
			}
			res, err := risk.LinkageAttack(released, register, h)
			if err != nil {
				t.Fatal(err)
			}
			add("linkage k=%d hierarchies=%v register=%d linked=%d unique=%d expected=%v avg=%v",
				k, withHS, res.RegisterSize, res.Linked, res.UniqueLinks, res.ExpectedReidentifications, res.AverageMatchSize)
		}
	}

	// Classification utility: raw splits and a Mondrian-generalized training
	// release, as in experiment E3.
	ctbl := synth.Census(800, 4)
	features := []string{"age", "education", "marital-status", "hours-per-week", "sex"}
	anon, err := mondrian.Anonymize(ctbl, mondrian.Config{K: 10, QuasiIdentifiers: features})
	if err != nil {
		t.Fatal(err)
	}
	train, test := anon.Table.Split(0.7, rand.New(rand.NewSource(4)))
	for _, mk := range []func() classify.Classifier{
		func() classify.Classifier { return &classify.NaiveBayes{} },
		func() classify.Classifier { return &classify.KNN{K: 7} },
	} {
		raw, err := classify.SplitEvaluate(mk(), ctbl, features, "salary", 0.7, 4)
		if err != nil {
			t.Fatal(err)
		}
		c := mk()
		ev, err := classify.Evaluate(c, train, test, features, "salary")
		if err != nil {
			t.Fatal(err)
		}
		add("classify %s raw=%v/%v/%d mondrian-k10=%v/%v/%d", c.Name(),
			raw.Accuracy, raw.BaselineAccuracy, raw.TestSize, ev.Accuracy, ev.BaselineAccuracy, ev.TestSize)
	}

	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "readers_oracle.txt")
	if *updateReadersOracle {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update-readers-oracle)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("oracle has %d cases, run produced %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("case %d:\n got  %s\n want %s", i, lines[i], wantLines[i])
		}
	}
}

// anatomyEstimates answers, from the anatomized release, "how many records
// share row 0's first QI value and carry sensitive value v" for every
// sensitive value v of the source, in domain order.
func anatomyEstimates(t *testing.T, src *dataset.Table, res *anatomy.Result) string {
	t.Helper()
	first, err := res.QIT.Value(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	values, err := src.Domain(res.Sensitive)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(values))
	for i, v := range values {
		out[i] = fmt.Sprint(res.EstimateCount(func(qi []string) bool { return qi[0] == first }, v))
	}
	return strings.Join(out, ",")
}

func dropIDs(t *testing.T, tbl *dataset.Table) *dataset.Table {
	t.Helper()
	out, err := tbl.DropIdentifiers()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func recode(t *testing.T, tbl *dataset.Table, qi []string, hs *hierarchy.Set, node lattice.Node) *dataset.Table {
	t.Helper()
	out, err := generalize.FullDomain(tbl, qi, hs, node)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// onlyQI re-types tbl so that exactly the qi columns are quasi-identifiers.
func onlyQI(t *testing.T, tbl *dataset.Table, qi []string) *dataset.Table {
	t.Helper()
	kinds := make(map[string]dataset.Kind)
	for _, a := range tbl.Schema().Attributes() {
		if a.Kind == dataset.QuasiIdentifier {
			kinds[a.Name] = dataset.Insensitive
		}
	}
	for _, a := range qi {
		kinds[a] = dataset.QuasiIdentifier
	}
	schema, err := tbl.Schema().WithKinds(kinds)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tbl.WithSchema(schema)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
