package synth

import (
	"fmt"
	"math/rand"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
)

// Hospital attribute domains. The diagnosis distribution is intentionally
// skewed (a few very common conditions and a long tail of rare, highly
// sensitive ones) because that skew is what separates l-diversity from
// t-closeness in the attribute-disclosure experiments.
var (
	hospitalZips = []string{
		"30301", "30302", "30303", "30304", "30305",
		"30310", "30311", "30312", "30318", "30319",
		"31401", "31402", "31403", "31404", "31405",
	}
	hospitalNationalities = []string{
		"american", "canadian", "mexican", "indian", "chinese", "japanese",
		"russian", "brazilian", "german", "french",
	}
	hospitalNationalityWeights = []float64{0.72, 0.03, 0.06, 0.04, 0.04, 0.02, 0.02, 0.03, 0.02, 0.02}

	hospitalDiagnoses = []string{
		"flu", "bronchitis", "gastritis", "hypertension", "diabetes",
		"asthma", "pneumonia", "heart-disease", "cancer", "hiv",
	}
	// The most common diagnosis stays well below 1/6 of the population so
	// that Anatomy's l-eligibility condition holds up to l=6, while the tail
	// (cancer, hiv) remains rare enough to exercise skewness attacks.
	hospitalDiagnosisWeights = []float64{0.13, 0.13, 0.12, 0.12, 0.11, 0.10, 0.09, 0.08, 0.07, 0.05}
)

// HospitalSchema returns the schema of the synthetic inpatient-discharge
// dataset: name is a direct identifier, diagnosis is sensitive, the rest form
// the quasi-identifier.
func HospitalSchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Attribute{Name: "name", Kind: dataset.Identifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "zip", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "sex", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "nationality", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "diagnosis", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
}

// Hospital generates n synthetic discharge records. Diagnosis probabilities
// shift with age (chronic conditions become more likely for older patients),
// which gives attribute-linkage attacks a realistic signal to exploit.
func Hospital(n int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]dataset.Row, n)
	for i := range rows {
		age := 1 + rng.Intn(95)
		zip := hospitalZips[zipIndexForAge(rng, age)]
		sex := censusSexes[rng.Intn(2)]
		nat := hospitalNationalities[weighted(rng, hospitalNationalityWeights)]
		diag := sampleDiagnosis(rng, age)
		rows[i] = dataset.Row{
			fmt.Sprintf("patient-%06d", i),
			fmt.Sprint(age),
			zip,
			sex,
			nat,
			diag,
		}
	}
	t, err := dataset.FromRows(HospitalSchema(), rows)
	if err != nil {
		panic(err)
	}
	return t
}

// zipIndexForAge correlates residence loosely with age so that zip carries
// some predictive signal about the sensitive attribute.
func zipIndexForAge(rng *rand.Rand, age int) int {
	base := rng.Intn(len(hospitalZips))
	if age > 65 && rng.Float64() < 0.4 {
		return 10 + rng.Intn(5) // retirees cluster in the 314xx area
	}
	return base
}

func sampleDiagnosis(rng *rand.Rand, age int) string {
	w := append([]float64(nil), hospitalDiagnosisWeights...)
	if age > 60 {
		w[3] *= 1.5 // hypertension
		w[4] *= 1.4 // diabetes
		w[7] *= 1.8 // heart-disease
		w[8] *= 1.6 // cancer
	}
	if age < 20 {
		w[0] *= 1.5 // flu
		w[5] *= 1.6 // asthma
	}
	return hospitalDiagnoses[weighted(rng, w)]
}

// HospitalHierarchies returns the generalization hierarchies for every
// hospital quasi-identifier.
func HospitalHierarchies() *hierarchy.Set {
	age := hierarchy.MustInterval("age", 0, 99, []float64{5, 10, 20, 50})
	zip, err := hierarchy.NewPrefixCategory("zip", hospitalZips, 4)
	if err != nil {
		panic(err)
	}
	sex, err := hierarchy.NewFlatCategory("sex", censusSexes)
	if err != nil {
		panic(err)
	}
	nat, err := hierarchy.NewGroupedCategory("nationality", map[string][]string{
		"north-american": {"american", "canadian", "mexican"},
		"asian":          {"indian", "chinese", "japanese"},
		"european":       {"russian", "german", "french"},
		"south-american": {"brazilian"},
	})
	if err != nil {
		panic(err)
	}
	return hierarchy.MustSet(age, zip, sex, nat)
}

// HospitalDiagnoses returns the sensitive-value domain of the hospital
// dataset (most common first).
func HospitalDiagnoses() []string {
	return append([]string(nil), hospitalDiagnoses...)
}

// IdentifiedRegister builds an external "voter registration" style table for
// linkage-attack experiments: it contains direct identifiers together with a
// subset of the private table's quasi-identifier values. A fraction overlap
// of the register rows are true population members copied from the private
// table; the rest are decoys drawn from the same generator so the attacker
// cannot tell members apart structurally.
//
// The register schema is the private table's quasi-identifier columns plus
// its identifier columns (re-typed as insensitive so the register can be
// published); sensitive columns are excluded.
func IdentifiedRegister(private *dataset.Table, overlap float64, decoys int, seed int64) (*dataset.Table, error) {
	if overlap < 0 {
		overlap = 0
	}
	if overlap > 1 {
		overlap = 1
	}
	rng := rand.New(rand.NewSource(seed))
	schema := private.Schema()
	cols := append(schema.IdentifierIndices(), schema.QuasiIdentifierIndices()...)
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = schema.Attribute(c).Name
	}
	proj, err := private.Project(names...)
	if err != nil {
		return nil, err
	}
	members := proj.Sample(int(float64(private.Len())*overlap), rng)

	// Decoys: fresh rows from the hospital/census generator family are not
	// available generically, so decoys are resampled rows with fresh
	// identifiers and lightly perturbed quasi-identifiers.
	out := members.Clone()
	picks := make([]int, decoys)
	ids := make([]string, decoys)
	codes := make([]uint32, decoys)
	for i := range picks {
		picks[i] = rng.Intn(proj.Len())
		ids[i] = fmt.Sprintf("decoy-%06d", i)
		codes[i] = uint32(i)
	}
	decoyTable, err := proj.Select(picks)
	if err != nil {
		return nil, err
	}
	if err := decoyTable.SetCodedColumn(0, ids, codes); err != nil {
		return nil, err
	}
	if err := out.AppendTable(decoyTable); err != nil {
		return nil, err
	}
	return out, nil
}
