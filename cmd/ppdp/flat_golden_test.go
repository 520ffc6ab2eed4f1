package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestAnonymizeFlatStderrGolden pins the `policy:` echo and the `released`
// summary line the anonymize subcommand prints for flat privacy flags —
// including criteria the algorithm does not enforce, which are declared,
// echoed and measured all the same — against testdata/flat_stderr_golden.txt.
func TestAnonymizeFlatStderrGolden(t *testing.T) {
	dir := t.TempDir()
	census := filepath.Join(dir, "census.csv")
	hospital := filepath.Join(dir, "hospital.csv")
	out := filepath.Join(dir, "out.csv")
	for _, args := range [][]string{
		{"generate", "-dataset", "census", "-rows", "300", "-seed", "4", "-out", census},
		{"generate", "-dataset", "hospital", "-rows", "300", "-seed", "4", "-out", hospital},
	} {
		if err := run(args); err != nil {
			t.Fatal(err)
		}
	}
	cases := [][]string{
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
	var got strings.Builder
	for _, flags := range cases {
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
