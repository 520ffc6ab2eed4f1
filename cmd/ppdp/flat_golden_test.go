package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/server"
)

var updateFlatGolden = flag.Bool("update-flat-golden", false, "rewrite testdata/flat_stderr_golden.txt from the current tree")

// captureStderr runs f with os.Stderr redirected to a file and returns what
// it wrote.
func captureStderr(t *testing.T, f func() error) (string, error) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stderr
	os.Stderr = tmp
	runErr := f()
	os.Stderr = saved
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// flatGoldenCases are the flat-flag anonymize invocations the stderr golden
// pins; a case starting with -dataset runs on the hospital table, the rest
// on census.
var flatGoldenCases = [][]string{
	{"-algorithm", "mondrian"},
	{"-algorithm", "mondrian", "-k", "5", "-l", "2", "-sensitive", "occupation"},
	{"-algorithm", "mondrian", "-k", "5", "-l", "2", "-diversity", "entropy", "-sensitive", "occupation"},
	{"-algorithm", "mondrian", "-k", "5", "-t", "0.6", "-sensitive", "occupation", "-max-suppression", "0"},
	{"-algorithm", "incognito", "-k", "5", "-t", "0.5", "-sensitive", "occupation"},
	{"-algorithm", "topdown", "-k", "5", "-l", "2"},
	{"-algorithm", "datafly", "-k", "5"},
	{"-algorithm", "datafly", "-k", "5", "-l", "2", "-sensitive", "occupation"},
	{"-algorithm", "datafly", "-k", "5", "-t", "0.3", "-sensitive", "occupation", "-max-suppression", "0.1"},
	{"-algorithm", "samarati", "-k", "5", "-l", "2", "-diversity", "recursive", "-c", "2", "-sensitive", "occupation"},
	{"-algorithm", "samarati", "-k", "5", "-t", "0.3", "-max-suppression", "0"},
	{"-algorithm", "kmember", "-k", "5", "-l", "3", "-t", "0.4", "-sensitive", "occupation"},
	{"-dataset", "hospital", "-algorithm", "anatomy", "-l", "3"},
	{"-dataset", "hospital", "-algorithm", "anatomy", "-l", "3", "-diversity", "entropy"},
	{"-dataset", "hospital", "-algorithm", "anatomy", "-l", "3", "-diversity", "recursive", "-k", "5"},
}

// writeFlatInputs generates the census and hospital tables the flat golden
// cases run on.
func writeFlatInputs(t *testing.T, dir string) (census, hospital string) {
	t.Helper()
	census = filepath.Join(dir, "census.csv")
	hospital = filepath.Join(dir, "hospital.csv")
	for _, args := range [][]string{
		{"generate", "-dataset", "census", "-rows", "300", "-seed", "4", "-out", census},
		{"generate", "-dataset", "hospital", "-rows", "300", "-seed", "4", "-out", hospital},
	} {
		if err := run(args); err != nil {
			t.Fatal(err)
		}
	}
	return census, hospital
}

// TestAnonymizeFlatStderrGolden pins the `policy:` echo and the `released`
// summary line the anonymize subcommand prints for flat privacy flags —
// including criteria the algorithm does not enforce, which are declared,
// echoed and measured all the same — against testdata/flat_stderr_golden.txt.
func TestAnonymizeFlatStderrGolden(t *testing.T) {
	dir := t.TempDir()
	census, hospital := writeFlatInputs(t, dir)
	out := filepath.Join(dir, "out.csv")
	var got strings.Builder
	for _, flags := range flatGoldenCases {
		in := census
		if flags[0] == "-dataset" {
			in = hospital
		}
		args := append([]string{"anonymize", "-in", in, "-out", out}, flags...)
		stderr, err := captureStderr(t, func() error { return run(args) })
		if err != nil {
			t.Fatalf("%v: %v", flags, err)
		}
		fmt.Fprintf(&got, "### %s\n", strings.Join(flags, " "))
		sc := bufio.NewScanner(strings.NewReader(stderr))
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "policy: ") || strings.HasPrefix(line, "released ") {
				fmt.Fprintln(&got, line)
			}
		}
	}
	path := filepath.Join("testdata", "flat_stderr_golden.txt")
	if *updateFlatGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(got.String()), want) {
		t.Fatalf("anonymize stderr differs from %s:\ngot:\n%s\nwant:\n%s", path, got.String(), want)
	}
}

// TestAnonymizeFlatEchoMatchesServer checks that both flat edges declare the
// same policy: for every golden case, the CLI's `policy:` echo equals the
// Describe() of the policy the HTTP service echoes for the same flat
// parameters on the same table.
func TestAnonymizeFlatEchoMatchesServer(t *testing.T) {
	dir := t.TempDir()
	census, hospital := writeFlatInputs(t, dir)
	srv := server.New(server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for name, path := range map[string]string{"census": census, "hospital": hospital} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest("PUT", ts.URL+"/v1/datasets/"+name+"?family="+name, bytes.NewReader(raw))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("upload %s = %d", name, resp.StatusCode)
		}
	}
	// The CLI flags' wire names in the anonymize request, and how to decode
	// their values.
	wire := map[string]string{"-algorithm": "algorithm", "-dataset": "dataset", "-sensitive": "sensitive",
		"-diversity": "diversity_mode", "-k": "k", "-l": "l", "-t": "t", "-c": "c", "-max-suppression": "max_suppression"}
	numeric := map[string]bool{"k": true, "l": true, "t": true, "c": true, "max_suppression": true}
	out := filepath.Join(dir, "out.csv")
	for _, flags := range flatGoldenCases {
		in := census
		body := map[string]any{"dataset": "census"}
		for i := 0; i < len(flags); i += 2 {
			key, ok := wire[flags[i]]
			if !ok {
				t.Fatalf("%v: no wire name for %s", flags, flags[i])
			}
			if numeric[key] {
				v, err := strconv.ParseFloat(flags[i+1], 64)
				if err != nil {
					t.Fatal(err)
				}
				body[key] = v
			} else {
				body[key] = flags[i+1]
			}
		}
		if body["dataset"] == "hospital" {
			in = hospital
		}
		args := append([]string{"anonymize", "-in", in, "-out", out}, flags...)
		stderr, err := captureStderr(t, func() error { return run(args) })
		if err != nil {
			t.Fatalf("%v: %v", flags, err)
		}
		var cliEcho string
		for _, line := range strings.Split(stderr, "\n") {
			if rest, ok := strings.CutPrefix(line, "policy: "); ok {
				cliEcho = rest
			}
		}

		payload, _ := json.Marshal(body)
		resp, err := ts.Client().Post(ts.URL+"/v1/anonymize", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Policy *policy.Policy `json:"policy"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || got.Policy == nil {
			t.Fatalf("%v: server anonymize = %d, %v", flags, resp.StatusCode, err)
		}
		if want := got.Policy.Describe(); cliEcho != want {
			t.Errorf("%v: CLI declares %q, service declares %q", flags, cliEcho, want)
		}
	}
}
