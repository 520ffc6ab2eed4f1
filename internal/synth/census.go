// Package synth generates the synthetic datasets used by examples, tests and
// the experiment harness.
//
// The PPDP literature evaluates almost exclusively on the UCI "Adult" census
// extract and on hospital-discharge style microdata. Neither can be shipped
// or downloaded in this offline module, so this package generates datasets
// with the same schemas, realistic marginal distributions, and the attribute
// correlations the experiments depend on (education drives salary, age drives
// marital status, diagnosis prevalence is heavily skewed, and so on). All
// generators are deterministic given a seed.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
)

// weighted picks an index from weights proportionally.
func weighted(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Census attribute domains. Values mirror the UCI Adult extract so that
// hierarchies from the literature carry over directly.
var (
	censusWorkclasses = []string{
		"private", "self-emp-not-inc", "self-emp-inc", "federal-gov",
		"local-gov", "state-gov", "without-pay",
	}
	censusWorkclassWeights = []float64{0.70, 0.08, 0.04, 0.03, 0.07, 0.05, 0.03}

	censusEducations = []string{
		"preschool", "1st-4th", "5th-6th", "7th-8th", "9th", "10th", "11th", "12th",
		"hs-grad", "some-college", "assoc-voc", "assoc-acdm", "bachelors", "masters",
		"prof-school", "doctorate",
	}
	censusEducationWeights = []float64{
		0.002, 0.005, 0.01, 0.02, 0.015, 0.027, 0.035, 0.013,
		0.322, 0.223, 0.042, 0.033, 0.164, 0.054, 0.017, 0.013,
	}

	censusMaritals = []string{
		"never-married", "married-civ-spouse", "divorced", "separated",
		"widowed", "married-spouse-absent", "married-af-spouse",
	}

	censusOccupations = []string{
		"tech-support", "craft-repair", "other-service", "sales", "exec-managerial",
		"prof-specialty", "handlers-cleaners", "machine-op-inspct", "adm-clerical",
		"farming-fishing", "transport-moving", "priv-house-serv", "protective-serv",
		"armed-forces",
	}
	censusOccupationWeights = []float64{
		0.03, 0.13, 0.11, 0.12, 0.13, 0.13, 0.045, 0.065, 0.12,
		0.032, 0.05, 0.005, 0.021, 0.002,
	}

	censusRaces       = []string{"white", "black", "asian-pac-islander", "amer-indian-eskimo", "other"}
	censusRaceWeights = []float64{0.854, 0.096, 0.031, 0.01, 0.009}

	censusSexes = []string{"male", "female"}

	censusCountries = []string{
		"united-states", "mexico", "philippines", "germany", "canada", "india",
		"england", "china", "cuba", "jamaica", "south-korea", "italy", "vietnam",
		"japan", "poland", "columbia", "france", "brazil",
	}
	censusCountryWeights = []float64{
		0.90, 0.020, 0.006, 0.004, 0.004, 0.003, 0.003, 0.0025, 0.003, 0.0025,
		0.002, 0.0022, 0.002, 0.002, 0.0018, 0.0018, 0.0009, 0.0008,
	}
)

// educationRank maps an education value to an ordinal level used to correlate
// education with salary and occupation.
var educationRank = func() map[string]int {
	m := make(map[string]int, len(censusEducations))
	for i, e := range censusEducations {
		m[e] = i
	}
	return m
}()

// CensusSchema returns the schema of the synthetic census (Adult-like)
// dataset. The "name" column is a direct identifier, "salary" is the
// sensitive class label, and everything else is a quasi-identifier.
func CensusSchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Attribute{Name: "name", Kind: dataset.Identifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "workclass", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "education", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "marital-status", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "occupation", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "race", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "sex", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "hours-per-week", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "native-country", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "salary", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
}

// Census generates n synthetic census records with a deterministic seed.
// Correlations: higher education and more weekly hours increase the
// probability of the ">50k" salary class; marital status depends on age;
// occupation loosely tracks education.
func Census(n int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]dataset.Row, n)
	for i := range rows {
		age := sampleAge(rng)
		sex := censusSexes[weighted(rng, []float64{0.52, 0.48})]
		race := censusRaces[weighted(rng, censusRaceWeights)]
		country := censusCountries[weighted(rng, censusCountryWeights)]
		workclass := censusWorkclasses[weighted(rng, censusWorkclassWeights)]
		education := censusEducations[weighted(rng, censusEducationWeights)]
		marital := sampleMarital(rng, age)
		occupation := sampleOccupation(rng, education)
		hours := sampleHours(rng, workclass)
		salary := sampleSalary(rng, education, hours, age, marital)

		rows[i] = dataset.Row{
			fmt.Sprintf("person-%06d", i),
			fmt.Sprint(age),
			workclass,
			education,
			marital,
			occupation,
			race,
			sex,
			fmt.Sprint(hours),
			country,
			salary,
		}
	}
	// FromRows only fails on arity mismatch, which is impossible here.
	t, err := dataset.FromRows(CensusSchema(), rows)
	if err != nil {
		panic(err)
	}
	return t
}

func sampleAge(rng *rand.Rand) int {
	// Working-age skewed distribution between 17 and 90.
	a := 17 + int(rng.ExpFloat64()*14)
	if a > 90 {
		a = 90
	}
	return a
}

func sampleMarital(rng *rand.Rand, age int) string {
	switch {
	case age < 25:
		return censusMaritals[weighted(rng, []float64{0.80, 0.12, 0.03, 0.02, 0.0, 0.02, 0.01})]
	case age < 40:
		return censusMaritals[weighted(rng, []float64{0.30, 0.48, 0.12, 0.04, 0.01, 0.04, 0.01})]
	case age < 60:
		return censusMaritals[weighted(rng, []float64{0.12, 0.55, 0.20, 0.04, 0.04, 0.04, 0.01})]
	default:
		return censusMaritals[weighted(rng, []float64{0.06, 0.45, 0.17, 0.03, 0.25, 0.03, 0.01})]
	}
}

func sampleOccupation(rng *rand.Rand, education string) string {
	rank := educationRank[education]
	if rank >= educationRank["bachelors"] {
		// White-collar tilt.
		return censusOccupations[weighted(rng, []float64{
			0.06, 0.04, 0.04, 0.12, 0.25, 0.30, 0.01, 0.02, 0.10, 0.01, 0.02, 0.0, 0.02, 0.01,
		})]
	}
	if rank >= educationRank["hs-grad"] {
		return censusOccupations[weighted(rng, censusOccupationWeights)]
	}
	// Blue-collar tilt.
	return censusOccupations[weighted(rng, []float64{
		0.01, 0.22, 0.18, 0.07, 0.02, 0.02, 0.12, 0.14, 0.06, 0.07, 0.08, 0.01, 0.0, 0.0,
	})]
}

func sampleHours(rng *rand.Rand, workclass string) int {
	base := 40.0
	if workclass == "self-emp-inc" || workclass == "self-emp-not-inc" {
		base = 46
	}
	if workclass == "without-pay" {
		base = 25
	}
	h := int(rng.NormFloat64()*10 + base)
	if h < 1 {
		h = 1
	}
	if h > 99 {
		h = 99
	}
	return h
}

func sampleSalary(rng *rand.Rand, education string, hours, age int, marital string) string {
	// Logistic-style score combining the classic Adult predictors.
	score := -2.2
	score += 0.28 * float64(educationRank[education]-educationRank["hs-grad"])
	score += 0.03 * float64(hours-40)
	score += 0.02 * float64(age-38)
	if marital == "married-civ-spouse" || marital == "married-af-spouse" {
		score += 1.1
	}
	p := 1.0 / (1.0 + math.Exp(-score))
	if rng.Float64() < p {
		return ">50k"
	}
	return "<=50k"
}

// CensusHierarchies returns the generalization hierarchies for every census
// quasi-identifier. Categorical taxonomies follow the groupings commonly used
// with the Adult dataset; numeric attributes use widening intervals.
func CensusHierarchies() *hierarchy.Set {
	age := hierarchy.MustInterval("age", 0, 99, []float64{5, 10, 20, 50})
	hours := hierarchy.MustInterval("hours-per-week", 0, 99, []float64{5, 10, 25, 50})

	workclass := hierarchy.MustCategory("workclass", map[string][]string{
		"private":          {"non-government", "employed", "*"},
		"self-emp-not-inc": {"self-employed", "employed", "*"},
		"self-emp-inc":     {"self-employed", "employed", "*"},
		"federal-gov":      {"government", "employed", "*"},
		"local-gov":        {"government", "employed", "*"},
		"state-gov":        {"government", "employed", "*"},
		"without-pay":      {"unpaid", "not-employed", "*"},
	})

	eduPaths := map[string][]string{}
	for _, e := range censusEducations {
		var group string
		switch {
		case educationRank[e] <= educationRank["12th"]:
			group = "no-diploma"
		case educationRank[e] <= educationRank["some-college"]:
			group = "high-school"
		case educationRank[e] <= educationRank["assoc-acdm"]:
			group = "associate"
		default:
			group = "higher-education"
		}
		eduPaths[e] = []string{group, "*"}
	}
	education := hierarchy.MustCategory("education", eduPaths)

	marital := hierarchy.MustCategory("marital-status", map[string][]string{
		"never-married":         {"not-married", "*"},
		"divorced":              {"not-married", "*"},
		"separated":             {"not-married", "*"},
		"widowed":               {"not-married", "*"},
		"married-civ-spouse":    {"married", "*"},
		"married-spouse-absent": {"married", "*"},
		"married-af-spouse":     {"married", "*"},
	})

	occPaths := map[string][]string{}
	blue := map[string]bool{
		"craft-repair": true, "handlers-cleaners": true, "machine-op-inspct": true,
		"farming-fishing": true, "transport-moving": true, "priv-house-serv": true,
	}
	for _, o := range censusOccupations {
		group := "white-collar"
		switch {
		case blue[o]:
			group = "blue-collar"
		case o == "other-service" || o == "protective-serv" || o == "armed-forces":
			group = "service"
		}
		occPaths[o] = []string{group, "*"}
	}
	occupation := hierarchy.MustCategory("occupation", occPaths)

	race, err := hierarchy.NewFlatCategory("race", censusRaces)
	if err != nil {
		panic(err)
	}
	sex, err := hierarchy.NewFlatCategory("sex", censusSexes)
	if err != nil {
		panic(err)
	}

	countryPaths := map[string][]string{}
	continent := map[string]string{
		"united-states": "north-america", "mexico": "north-america", "canada": "north-america",
		"cuba": "north-america", "jamaica": "north-america",
		"philippines": "asia", "india": "asia", "china": "asia", "south-korea": "asia",
		"vietnam": "asia", "japan": "asia",
		"germany": "europe", "england": "europe", "italy": "europe", "poland": "europe", "france": "europe",
		"columbia": "south-america", "brazil": "south-america",
	}
	for _, c := range censusCountries {
		countryPaths[c] = []string{continent[c], "*"}
	}
	country := hierarchy.MustCategory("native-country", countryPaths)

	return hierarchy.MustSet(age, hours, workclass, education, marital, occupation, race, sex, country)
}

// CensusQuasiIdentifiers returns the default quasi-identifier attribute names
// of the census dataset, in schema order.
func CensusQuasiIdentifiers() []string {
	return CensusSchema().QuasiIdentifierNames()
}
