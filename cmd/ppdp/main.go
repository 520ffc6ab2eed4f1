// Command ppdp is the command-line interface of the privacy-preserving data
// publishing library. It can generate the synthetic benchmark datasets,
// anonymize a CSV table with any of the seven implemented algorithms, assess
// re-identification and attribute-disclosure risk of a release, evaluate
// utility metrics, run the survey-reproduction experiments, and serve the
// whole pipeline as a long-running HTTP service.
//
// Usage:
//
//	ppdp generate  -dataset census|hospital -rows N -seed S -out file.csv
//	ppdp anonymize -dataset census|hospital -in file.csv -algorithm A [-policy p.json] [-progress] [flags] -out out.csv
//	ppdp algorithms [-json]
//	ppdp policy    validate|show file.json | convert [flags] [-out p.json]
//	ppdp risk      -dataset census|hospital -in file.csv [-threshold 0.2]
//	ppdp utility   -dataset census|hospital -original orig.csv -released rel.csv [-k 10]
//	ppdp experiment -id E1 [-quick] [-rows N] | -all [-quick]
//	ppdp serve     [-addr :8080] [-workers N] [-job-workers N] [-queue-depth N]
//	               [-job-ttl 15m] [-timeout 60s] [-preload census=5000] [-policy name=p.json]
//	ppdp spec      create|list|get|delete|append [-server http://localhost:8080] [flags]
//
// The anonymize subcommand accepts any registered algorithm; `ppdp
// algorithms` prints the registry's listing — name, description, supported
// policy criteria, the flags each algorithm reads and their defaults —
// generated from the same engine metadata the HTTP service serves on GET
// /v1/algorithms (-json emits that exact body). -progress streams a live
// progress line on stderr, fed by the same engine sink the HTTP jobs report
// through.
//
// Privacy criteria are declared either with the flat flags (-k/-l/-t/...)
// or declaratively with -policy file.json, a versioned JSON document
// composing criteria (see internal/policy and docs/API.md). `ppdp policy`
// validates and canonicalizes policy files and converts flat flags into
// them; either surface runs the same policy-only pipeline (flat flags are
// translated once, here), and anonymize echoes the canonical policy the
// release declares on stderr.
//
// `ppdp serve` exposes the same pipeline over HTTP, synchronously and as
// background jobs behind one bounded executor (-job-workers running,
// -queue-depth waiting) — see internal/server and docs/ARCHITECTURE.md for
// the endpoint reference. -policy preloads a stored policy clients can
// reference with "policy_ref".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/ppdp/ppdp/internal/core"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/experiments"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/metrics"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/risk"
	"github.com/ppdp/ppdp/internal/synth"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ppdp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "generate":
		return cmdGenerate(args[1:])
	case "anonymize":
		return cmdAnonymize(args[1:])
	case "algorithms":
		return cmdAlgorithms(args[1:])
	case "policy":
		return cmdPolicy(args[1:])
	case "risk":
		return cmdRisk(args[1:])
	case "utility":
		return cmdUtility(args[1:])
	case "experiment":
		return cmdExperiment(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "spec":
		return cmdSpec(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `ppdp - privacy-preserving data publishing toolkit

subcommands:
  generate    generate a synthetic census or hospital dataset as CSV
  anonymize   anonymize a CSV dataset with k-anonymity / l-diversity / t-closeness
  algorithms  list the registered algorithms with their parameters (-json for machine-readable)
  policy      validate, canonicalize or convert declarative privacy-policy files
  risk        assess re-identification and attribute-disclosure risk of a release
  utility     compare a released table against the original with utility metrics
  experiment  run one or all of the survey-reproduction experiments (E1-E12)
  serve       run the HTTP anonymization service (see docs/ARCHITECTURE.md)
  spec        manage release specs on a running service (continuous anonymization)

anonymize algorithms (-algorithm) and the flags each one reads:`)
	writeAlgorithmListing(os.Stderr)
	fmt.Fprintln(os.Stderr, `
run 'ppdp <subcommand> -h' for the full flag list of a subcommand.`)
}

// flagOf derives an algorithm parameter's CLI flag name from the engine
// metadata: the explicit Flag override when set, otherwise the wire name
// with underscores dashed.
func flagOf(p engine.Param) string {
	if p.Flag != "" {
		return p.Flag
	}
	return strings.ReplaceAll(p.Name, "_", "-")
}

// writeAlgorithmListing renders the registry's algorithms as the usage
// block: one line of flags (required first, optional bracketed) and one line
// of description per algorithm. Both the CLI usage and `ppdp algorithms`
// are generated from the same engine metadata the server serves, so a newly
// registered algorithm shows up everywhere with no edit here.
func writeAlgorithmListing(w *os.File) {
	for _, info := range engine.Infos() {
		var required, optional []string
		for _, p := range info.Parameters {
			// quasi_identifiers is schema-driven in the CLI (no flag).
			if p.Name == "quasi_identifiers" {
				continue
			}
			if p.Required {
				required = append(required, "-"+flagOf(p))
			} else {
				optional = append(optional, "-"+flagOf(p))
			}
		}
		flags := strings.Join(required, " ")
		if len(optional) > 0 {
			flags += " [" + strings.Join(optional, " ") + "]"
		}
		fmt.Fprintf(w, "  %-11s %s\n              %s\n", info.Name, strings.TrimSpace(flags), info.Description)
	}
}

// writeAlgorithmsJSON renders the registry's capability cards exactly as the
// HTTP service serves them on GET /v1/algorithms — same struct, same
// encoder settings — so scripts can consume either source interchangeably
// (drift-gated by TestAlgorithmsJSONMatchesServer).
func writeAlgorithmsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"algorithms": engine.Infos()})
}

// cmdAlgorithms prints the algorithm registry: the same metadata the HTTP
// service serves on GET /v1/algorithms, as a flag-oriented text table, or
// verbatim as JSON under -json.
func cmdAlgorithms(args []string) error {
	fs := flag.NewFlagSet("algorithms", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the capability cards as JSON (the GET /v1/algorithms body)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonOut {
		return writeAlgorithmsJSON(os.Stdout)
	}
	for _, info := range engine.Infos() {
		kind := string(info.Kind)
		if info.FullDomain {
			kind += ", full-domain"
		}
		if info.RequiresHierarchies {
			kind += ", needs hierarchies"
		}
		if info.Parallel {
			kind += ", parallel"
		}
		if info.Default {
			kind += ", default"
		}
		fmt.Printf("%s — %s (%s)\n", info.Name, info.Description, kind)
		if len(info.Criteria) > 0 {
			fmt.Printf("  %-18s %s\n", "policy criteria", strings.Join(info.Criteria, ", "))
		}
		for _, p := range info.Parameters {
			req := "optional"
			if p.Required {
				req = "required"
			}
			flagName := "-" + flagOf(p)
			if p.Name == "quasi_identifiers" {
				flagName = "(schema)"
			}
			desc := p.Description
			if p.Default != nil {
				desc += fmt.Sprintf(" (default %v)", p.Default)
			}
			fmt.Printf("  %-18s %-8s %-8s %s\n", flagName, p.Type, req, desc)
		}
	}
	return nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	datasetName := fs.String("dataset", "census", "dataset family: census or hospital")
	rows := fs.Int("rows", 5000, "number of rows")
	seed := fs.Int64("seed", 42, "random seed")
	out := fs.String("out", "", "output CSV path (stdout when empty)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	family, err := synth.FamilyByName(*datasetName)
	if err != nil {
		return err
	}
	tbl := family.Generate(*rows, *seed)
	if *out == "" {
		return tbl.WriteCSV(os.Stdout)
	}
	if err := tbl.WriteCSVFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %d rows to %s\n", tbl.Len(), *out)
	return nil
}

// loadTable reads a CSV in the named dataset family (full schema with an
// identifier-free fallback for released tables — see synth.Family.ReadCSV)
// and returns it with the family's hierarchies.
func loadTable(family, path string) (*dataset.Table, *hierarchy.Set, error) {
	f, err := synth.FamilyByName(family)
	if err != nil {
		return nil, nil, err
	}
	tbl, err := f.ReadCSVFile(path)
	if err != nil {
		return nil, nil, err
	}
	return tbl, f.Hierarchies(), nil
}

func cmdAnonymize(args []string) error {
	fs := flag.NewFlagSet("anonymize", flag.ContinueOnError)
	datasetName := fs.String("dataset", "census", "dataset family: census or hospital")
	in := fs.String("in", "", "input CSV path (required)")
	out := fs.String("out", "", "output CSV path (stdout when empty)")
	algorithm := fs.String("algorithm", "mondrian", strings.Join(engine.Names(), "|"))
	// -k and -max-suppression default per algorithm, from the engine
	// registry's metadata (engine.Info.FlatPolicy), when left unset — the
	// same rule the service applies, so the CLI cannot drift from it.
	k := fs.Int("k", 0, "k-anonymity parameter (default: the algorithm's declared k, 10 where it reads one)")
	l := fs.Int("l", 0, "l-diversity parameter (0 disables; anatomy requires >= 2)")
	t := fs.Float64("t", 0, "t-closeness parameter (0 disables)")
	diversity := fs.String("diversity", "", "l-diversity variant: distinct|entropy|recursive (distinct when empty)")
	c := fs.Float64("c", 0, "recursive (c,l)-diversity constant (default 3)")
	sensitive := fs.String("sensitive", "", "sensitive attribute (defaults to the schema's first sensitive column)")
	strict := fs.Bool("strict", false, "strict Mondrian partitioning (never separate equal values)")
	workers := fs.Int("workers", 0, "worker pool bound for parallel algorithms (0 = GOMAXPROCS)")
	suppress := fs.Float64("max-suppression", 0,
		"maximum fraction of suppressed records (default: the algorithm's declared budget, 0.02 for datafly/samarati)")
	policyPath := fs.String("policy", "",
		"privacy-policy JSON file declaring the criteria (replaces -k/-l/-t/-diversity/-c/-max-suppression)")
	progress := fs.Bool("progress", false, "report run progress on stderr")
	// One-shot CLI runs always compute fresh; the flag exists for parity with
	// the service's no_cache request option so scripted invocations translate
	// verbatim between the two surfaces.
	fs.Bool("no-cache", false, "accepted for parity with the service's no_cache option (local runs always compute fresh)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("anonymize: -in is required")
	}
	// Validate the cheap flags before touching the filesystem so usage
	// errors do not depend on the input file being readable.
	alg, err := core.ParseAlgorithm(*algorithm)
	if err != nil {
		return err
	}
	// set holds the flags given on the command line: only those count as
	// supplied, for the -policy conflict and for the flat defaults.
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var pol *policy.Policy
	if *policyPath != "" {
		// A policy file and explicit flat privacy flags are mutually
		// exclusive; the flat flags' defaults are simply not applied.
		var conflict []string
		for _, name := range []string{"c", "diversity", "k", "l", "max-suppression", "t"} {
			if set[name] {
				conflict = append(conflict, "-"+name)
			}
		}
		if len(conflict) > 0 {
			return fmt.Errorf("anonymize: -policy and the flat privacy flags are mutually exclusive (got %s)",
				strings.Join(conflict, " "))
		}
		if pol, err = loadPolicyFile(*policyPath); err != nil {
			return err
		}
	}
	tbl, hs, err := loadTable(*datasetName, *in)
	if err != nil {
		return err
	}
	cfg := core.Config{
		Algorithm:      alg,
		Policy:         pol,
		Sensitive:      *sensitive,
		StrictMondrian: *strict,
		Workers:        *workers,
		Hierarchies:    hs,
	}
	if pol == nil {
		// Deprecated flat flags: translated once here, by the rule the
		// service applies. The run enforces what the algorithm supports; the
		// echo below is the full declaration. (The summary line needs no
		// re-measurement: without an ordered flag, its max-EMD does not
		// depend on the declared criteria.)
		engineAlg, err := engine.Lookup(string(alg))
		if err != nil {
			return err
		}
		cfg.Policy, pol, err = engineAlg.Describe().FlatPolicy(policy.Flat{
			K: *k, L: *l, DiversityMode: *diversity, C: *c, T: *t,
			Sensitive: *sensitive, MaxSuppression: *suppress,
		}, set["k"], set["max-suppression"])
		if err != nil {
			return fmt.Errorf("%w: %v", core.ErrConfig, err)
		}
	}
	if *progress {
		// The same engine sink the HTTP jobs feed on: events arrive
		// serialized and strictly increasing (see engine.Monotone), so a
		// plain carriage-return line needs no locking.
		cfg.Progress = func(done, total int) {
			percent := 100.0
			if total > 0 {
				percent = 100 * float64(done) / float64(total)
			}
			fmt.Fprintf(os.Stderr, "\rprogress: %d/%d units (%3.0f%%)", done, total, percent)
		}
	}
	anon, err := core.New(cfg)
	if err != nil {
		return err
	}
	// Echo the canonical policy the release declares, matching the HTTP
	// service's response echo.
	fmt.Fprintf(os.Stderr, "policy: %s\n", pol.Describe())
	rel, err := anon.Anonymize(tbl)
	if *progress {
		fmt.Fprintln(os.Stderr) // finish the carriage-return progress line
	}
	if err != nil {
		return err
	}
	if rel.Table != nil {
		fmt.Fprintf(os.Stderr, "released %d rows: k=%d distinct-l=%d max-EMD=%.3f NCP=%.3f suppressed=%d\n",
			rel.Table.Len(), rel.Measured.K, rel.Measured.DistinctL, rel.Measured.MaxEMD, rel.Measured.NCP, rel.Measured.SuppressedRows)
		if *out == "" {
			return rel.Table.WriteCSV(os.Stdout)
		}
		return rel.Table.WriteCSVFile(*out)
	}
	// Anatomy: write QIT and ST side by side.
	qitPath, stPath := *out+".qit.csv", *out+".st.csv"
	if *out == "" {
		fmt.Println("-- QIT --")
		if err := rel.QIT.WriteCSV(os.Stdout); err != nil {
			return err
		}
		fmt.Println("-- ST --")
		return rel.ST.WriteCSV(os.Stdout)
	}
	if err := rel.QIT.WriteCSVFile(qitPath); err != nil {
		return err
	}
	if err := rel.ST.WriteCSVFile(stPath); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", qitPath, stPath)
	return nil
}

func cmdRisk(args []string) error {
	fs := flag.NewFlagSet("risk", flag.ContinueOnError)
	datasetName := fs.String("dataset", "census", "dataset family: census or hospital")
	in := fs.String("in", "", "released CSV path (required)")
	threshold := fs.Float64("threshold", 0.2, "per-record risk threshold")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("risk: -in is required")
	}
	tbl, _, err := loadTable(*datasetName, *in)
	if err != nil {
		return err
	}
	r, err := risk.MeasureReidentification(tbl, *threshold)
	if err != nil {
		return err
	}
	fmt.Printf("records=%d classes=%d prosecutor-max=%.4f prosecutor-avg=%.4f records-at-risk(>%.2f)=%.4f\n",
		r.Records, r.Classes, r.ProsecutorMax, r.ProsecutorAvg, r.Threshold, r.RecordsAtRisk)
	for _, sensitive := range tbl.Schema().SensitiveNames() {
		h, err := risk.HomogeneityAttack(tbl, sensitive)
		if err != nil {
			return err
		}
		base, err := risk.BaselineGuessRate(tbl, sensitive)
		if err != nil {
			return err
		}
		fmt.Printf("sensitive=%s fully-disclosed=%.4f guess-rate=%.4f baseline=%.4f\n",
			sensitive, h.FullyDisclosed, h.ExpectedGuessRate, base)
	}
	return nil
}

func cmdUtility(args []string) error {
	fs := flag.NewFlagSet("utility", flag.ContinueOnError)
	datasetName := fs.String("dataset", "census", "dataset family: census or hospital")
	original := fs.String("original", "", "original CSV path (required)")
	released := fs.String("released", "", "released CSV path (required)")
	k := fs.Int("k", 10, "k used for the normalized average class size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *original == "" || *released == "" {
		return fmt.Errorf("utility: -original and -released are required")
	}
	orig, hs, err := loadTable(*datasetName, *original)
	if err != nil {
		return err
	}
	rel, _, err := loadTable(*datasetName, *released)
	if err != nil {
		return err
	}
	ncp, err := metrics.NCP(orig, rel, hs)
	if err != nil {
		return err
	}
	dm, err := metrics.Discernibility(rel, orig.Len())
	if err != nil {
		return err
	}
	cavg, err := metrics.NormalizedAverageClassSize(rel, *k)
	if err != nil {
		return err
	}
	fmt.Printf("NCP=%.4f discernibility=%.1f C_avg(k=%d)=%.3f\n", ncp, dm, *k, cavg)
	return nil
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	id := fs.String("id", "", "experiment id (E1..E12)")
	all := fs.Bool("all", false, "run every experiment")
	quick := fs.Bool("quick", false, "use reduced dataset sizes and sweeps")
	rows := fs.Int("rows", 0, "override dataset size")
	seed := fs.Int64("seed", 42, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt := experiments.Options{Quick: *quick, Rows: *rows, Seed: *seed}
	if *all {
		return experiments.RunAll(opt, os.Stdout)
	}
	if *id == "" {
		return fmt.Errorf("experiment: -id or -all is required (known: %v)", experiments.IDs())
	}
	rep, err := experiments.Run(*id, opt)
	if err != nil {
		return err
	}
	rep.Print(os.Stdout)
	return nil
}
