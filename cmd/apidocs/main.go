// Command apidocs generates docs/API.md: the HTTP route reference, the
// privacy-policy document schema and the algorithm capability cards, all
// rendered from the same in-process sources the service itself serves from
// (server.RouteDocs, the policy package's criterion metadata, and the engine
// registry). `make api-docs` writes the file; `make api-docs-check` (run in
// CI and by this command's own test) fails when the committed file is stale,
// so the documentation cannot drift from the code.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/ppdp/ppdp/internal/engine"
	_ "github.com/ppdp/ppdp/internal/engine/all" // register the built-in algorithms
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/server"
)

func main() {
	if err := generate(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "apidocs:", err)
		os.Exit(1)
	}
}

// generate renders the whole document. Output must be deterministic: the
// Makefile and CI diff it byte-for-byte against the committed file.
func generate(w io.Writer) error {
	var b strings.Builder

	b.WriteString(`# ppdp HTTP API

<!-- Generated by cmd/apidocs ("make api-docs"). Do not edit by hand:
     "make api-docs-check" fails CI when this file is stale. -->

The service (` + "`ppdp serve`" + `) exposes the release pipeline over HTTP. Every
error response is a JSON envelope ` + "`" + `{"error":{"code":"...","message":"..."}}` + "`" + `
with a machine-readable code; see docs/ARCHITECTURE.md for the execution and
concurrency model behind the endpoints.

## Routes

| Method and path | Summary |
|---|---|
`)
	for _, rt := range server.RouteDocs() {
		method, path, _ := strings.Cut(rt.Pattern, " ")
		fmt.Fprintf(&b, "| `%s %s` | %s |\n", method, path, rt.Summary)
	}

	b.WriteString(`
## Privacy-policy documents

Anonymization requests declare their privacy criteria as a declarative,
versioned policy document — inline under ` + "`\"policy\"`" + `, by reference to a
stored one under ` + "`\"policy_ref\"`" + `, or through the deprecated flat parameters
(` + "`k`, `l`, `t`, `c`, `diversity_mode`, `max_suppression`, `ordered_sensitive`" + `),
which the server translates onto the same pipeline. The three forms are
mutually exclusive; every response echoes the canonical policy that was
enforced.

` + "```json" + `
{
  "version": 1,
  "criteria": [
    {"type": "k-anonymity", "k": 10},
    {"type": "t-closeness", "t": 0.2, "sensitive": "disease"}
  ],
  "suppression": {"max_fraction": 0.02}
}
` + "```" + `

Decoding is strict: unknown criterion types, unknown fields, duplicate
criteria and out-of-range parameters are rejected. Policies canonicalize to
a stable form (version pinned, criteria in the fixed order below, defaults
filled), and a criterion's ` + "`sensitive`" + ` may be omitted to use the request's
` + "`sensitive`" + ` override or the schema's first sensitive column. A criterion the
selected algorithm cannot enforce fails the request with 400 ` + "`bad_config`" + `
before any work runs.

| Criterion type | Fields |
|---|---|
`)
	for _, typ := range policy.Types() {
		fields := policy.Fields(typ)
		quoted := make([]string, len(fields))
		for i, f := range fields {
			quoted[i] = "`" + f + "`"
		}
		fmt.Fprintf(&b, "| `%s` | %s |\n", typ, strings.Join(quoted, ", "))
	}

	b.WriteString(`
The optional ` + "`suppression.max_fraction`" + ` (in [0,1]) bounds record
suppression for the algorithms that support it.

Stored policies (` + "`POST /v1/policies`" + ` with ` + "`{\"name\": ..., \"policy\": ...}`" + `)
are immutable, name-addressable and capacity-capped; a run referencing one
through ` + "`policy_ref`" + ` pins the document as a snapshot, so deleting or
re-creating the name later never changes what the run enforced. Release
metadata and job details echo the pinned policy, and the measurements carry
a per-criterion verification keyed by criterion type:

` + "```json" + `
"measurements": {
  "criteria": {
    "k-anonymity": {"satisfied": true, "measured": 12, "target": 10},
    "t-closeness": {"satisfied": true, "measured": 0.14, "target": 0.2, "sensitive": "disease"}
  }, "...": "..."
}
` + "```" + `

Each entry applies the rule the algorithms enforce, and ` + "`satisfied`" + ` follows from
` + "`measured`" + ` and ` + "`target`" + `: measured ≥ target for k-anonymity (smallest class),
distinct-l-diversity (fewest distinct sensitive values in a class) and
entropy-l-diversity (effective l, e^H for the lowest class entropy H);
measured ≤ target for alpha-k-anonymity (largest sensitive-value share in a
class; every class must also hold k records) and t-closeness (largest class
EMD); measured < target for recursive-cl-diversity (largest r1/(r_l+…+r_m)
over the classes, against c). Entropy and t compare within 1e-12. A
measurement that is not a finite number is encoded as ` + "`null`" + `: recursive
(c,l)-diversity measures +Inf on a class with fewer than l sensitive values.

The measurements read two column sets. ` + "`k`" + `, ` + "`distinct_l`" + `, ` + "`max_emd`" + `,
` + "`prosecutor_max_risk`" + ` and every ` + "`criteria`" + ` entry group the release by the
quasi-identifier it was built for: the request's ` + "`quasi_identifiers`" + `, or
every quasi-identifier column of the schema when omitted. ` + "`ncp`" + ` and
` + "`discernibility`" + ` are taken over every quasi-identifier column of the schema.
On a run over a subset, NCP counts the columns left unrecoded as exact, and
they split discernibility's classes, so it can fall below k·N.

## Algorithms

Capability cards as served by ` + "`GET /v1/algorithms`" + ` (and
` + "`ppdp algorithms -json`" + `): release kind, supported policy criteria, and
the flat-parameter metadata with defaults.

`)
	for _, info := range engine.Infos() {
		traits := []string{string(info.Kind)}
		if info.FullDomain {
			traits = append(traits, "full-domain")
		}
		if info.RequiresHierarchies {
			traits = append(traits, "needs hierarchies")
		}
		if info.Parallel {
			traits = append(traits, "parallel")
		}
		if info.Default {
			traits = append(traits, "default")
		}
		fmt.Fprintf(&b, "### %s\n\n%s (%s)\n\n", info.Name, info.Description, strings.Join(traits, ", "))
		fmt.Fprintf(&b, "Criteria: ")
		for i, c := range info.Criteria {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "`%s`", c)
		}
		b.WriteString("\n\n| Parameter | Type | Required | Default | Description |\n|---|---|---|---|---|\n")
		for _, p := range info.Parameters {
			def := ""
			if p.Default != nil {
				def = fmt.Sprintf("`%v`", p.Default)
			}
			req := ""
			if p.Required {
				req = "yes"
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", p.Name, p.Type, req, def, p.Description)
		}
		b.WriteString("\n")
	}

	b.WriteString(`The flat parameters above remain accepted for compatibility; new clients
should declare criteria through policy documents, which can also express
combinations the flat surface cannot (for example ` + "`alpha-k-anonymity`" + ` or a
fractional entropy ` + "`l`" + `).
`)

	_, err := io.WriteString(w, b.String())
	return err
}
