// Command quickstart shows the smallest useful PPDP pipeline: generate a
// census-style table, anonymize it with Mondrian k-anonymity through the core
// API, verify the release, and report the measured privacy and utility.
package main

import (
	"fmt"
	"log"

	"github.com/ppdp/ppdp/internal/core"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/synth"
)

func main() {
	// 1. Obtain microdata. In a real deployment this is your own table; the
	// synthetic census generator mirrors the UCI Adult schema.
	original := synth.Census(2000, 1)
	fmt.Printf("original table: %d rows, %d columns\n", original.Len(), original.Schema().Len())
	fmt.Printf("quasi-identifier: %v\n", original.Schema().QuasiIdentifierNames())
	fmt.Printf("sensitive: %v\n\n", original.Schema().SensitiveNames())

	// 2. Configure the anonymizer: Mondrian multidimensional recoding under a
	// privacy policy composing k=10 with distinct 2-diversity on the salary
	// class.
	anon, err := core.New(core.Config{
		Algorithm: core.Mondrian,
		Policy: &policy.Policy{Criteria: []policy.Criterion{
			{Type: policy.KAnonymity, K: 10},
			{Type: policy.DistinctLDiversity, L: 2, Sensitive: "salary"},
		}},
		Hierarchies: synth.CensusHierarchies(),
	})
	if err != nil {
		log.Fatalf("configure: %v", err)
	}

	// 3. Anonymize. Direct identifiers are dropped automatically and the
	// release is measured.
	release, err := anon.Anonymize(original)
	if err != nil {
		log.Fatalf("anonymize: %v", err)
	}
	fmt.Printf("released table: %d rows\n", release.Table.Len())
	fmt.Printf("measured k           : %d\n", release.Measured.K)
	fmt.Printf("measured distinct l  : %d\n", release.Measured.DistinctL)
	fmt.Printf("prosecutor max risk  : %.4f\n", release.Measured.ProsecutorMaxRisk)
	fmt.Printf("information loss NCP : %.4f\n", release.Measured.NCP)

	// 4. Verify explicitly (the same check a data-protection officer would
	// script before sign-off).
	ok, failed, err := anon.Verify(release.Table)
	if err != nil {
		log.Fatalf("verify: %v", err)
	}
	if !ok {
		log.Fatalf("release violates %s", failed)
	}
	fmt.Println("\nrelease verified: k-anonymity and l-diversity hold")

	// 5. Peek at the released data.
	fmt.Println("\nfirst released rows:")
	fmt.Println(release.Table.String())
}
