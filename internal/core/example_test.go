package core_test

import (
	"fmt"
	"log"

	"github.com/ppdp/ppdp/internal/core"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/synth"
)

// ExampleAnonymizer shows the canonical release pipeline: configure, run,
// verify, and read back the measured privacy level.
func ExampleAnonymizer() {
	table := synth.Hospital(500, 1)

	anonymizer, err := core.New(core.Config{
		Algorithm: core.Mondrian,
		Policy: &policy.Policy{Criteria: []policy.Criterion{
			{Type: policy.KAnonymity, K: 5},
			{Type: policy.DistinctLDiversity, L: 2},
		}},
		Sensitive:   "diagnosis",
		Hierarchies: synth.HospitalHierarchies(),
	})
	if err != nil {
		log.Fatal(err)
	}
	release, err := anonymizer.Anonymize(table)
	if err != nil {
		log.Fatal(err)
	}
	ok, _, err := anonymizer.Verify(release.Table)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rows:", release.Table.Len())
	fmt.Println("k satisfied:", release.Measured.K >= 5)
	fmt.Println("l satisfied:", release.Measured.DistinctL >= 2)
	fmt.Println("verified:", ok)
	// Output:
	// rows: 500
	// k satisfied: true
	// l satisfied: true
	// verified: true
}
