package engine_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	_ "github.com/ppdp/ppdp/internal/engine/all"
)

// The seven built-in algorithms, for registry assertions.
var builtins = []string{"mondrian", "anatomy", "datafly", "incognito", "kmember", "samarati", "topdown"}

func TestRegistryListsBuiltinsDefaultFirst(t *testing.T) {
	names := engine.Names()
	if len(names) < len(builtins) {
		t.Fatalf("Names() = %v, want at least the %d built-ins", names, len(builtins))
	}
	if names[0] != "mondrian" {
		t.Errorf("default algorithm %q is not listed first: %v", names[0], names)
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	for _, b := range builtins {
		if !seen[b] {
			t.Errorf("built-in %q missing from registry: %v", b, names)
		}
	}
	// The remainder is sorted.
	for i := 2; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Errorf("names not sorted after the default: %v", names)
		}
	}
}

func TestLookup(t *testing.T) {
	for _, b := range builtins {
		alg, err := engine.Lookup(b)
		if err != nil || alg.Describe().Name != b {
			t.Errorf("Lookup(%q) = %v, %v", b, alg, err)
		}
	}
	// Empty resolves to the default.
	alg, err := engine.Lookup("")
	if err != nil || alg.Describe().Name != "mondrian" {
		t.Errorf("Lookup(\"\") = %v, %v", alg, err)
	}
	// Exact match only.
	for _, s := range []string{"Mondrian", " mondrian", "mondrian ", "bogus"} {
		if _, err := engine.Lookup(s); !errors.Is(err, engine.ErrUnknownAlgorithm) {
			t.Errorf("Lookup(%q) error = %v, want ErrUnknownAlgorithm", s, err)
		}
	}
}

func TestInfosAreComplete(t *testing.T) {
	for _, info := range engine.Infos() {
		if info.Name == "" || info.Description == "" {
			t.Errorf("incomplete info: %+v", info)
		}
		if info.Kind != engine.Microdata && info.Kind != engine.Bucketized {
			t.Errorf("%s: unknown release kind %q", info.Name, info.Kind)
		}
		if len(info.Parameters) == 0 {
			t.Errorf("%s: no parameters declared", info.Name)
		}
		// Every algorithm requires either k or l — except ones whose
		// headline parameter rides inside a policy document (republish's m).
		_, hasK := info.Param("k")
		_, hasL := info.Param("l")
		_, hasPolicy := info.Param("policy")
		if !hasK && !hasL && !hasPolicy {
			t.Errorf("%s: declares neither k nor l", info.Name)
		}
	}
}

func TestErrorClassification(t *testing.T) {
	sentinel := errors.New("pkg: specific failure")
	wrapped := fmt.Errorf("context: %w", sentinel)

	cfg := engine.ConfigError(wrapped)
	if !errors.Is(cfg, engine.ErrConfig) {
		t.Error("ConfigError does not match ErrConfig")
	}
	if errors.Is(cfg, engine.ErrUnsatisfiable) {
		t.Error("ConfigError matches ErrUnsatisfiable")
	}
	if !errors.Is(cfg, sentinel) {
		t.Error("ConfigError hides the original chain")
	}
	if cfg.Error() != wrapped.Error() {
		t.Errorf("ConfigError message = %q, want %q", cfg.Error(), wrapped.Error())
	}

	uns := engine.UnsatisfiableError(sentinel)
	if !errors.Is(uns, engine.ErrUnsatisfiable) || errors.Is(uns, engine.ErrConfig) {
		t.Errorf("UnsatisfiableError classification wrong: %v", uns)
	}
	if engine.ConfigError(nil) != nil || engine.UnsatisfiableError(nil) != nil {
		t.Error("classifying nil should stay nil")
	}
}

// fakeAlg is a minimal Algorithm for registration tests.
type fakeAlg struct {
	name   string
	params []engine.Param
}

func (f fakeAlg) Describe() engine.Info {
	params := f.params
	if params == nil {
		params = []engine.Param{{Name: "k", Type: "int"}}
	}
	return engine.Info{Name: f.name, Description: "fake", Kind: engine.Microdata, Parameters: params}
}
func (f fakeAlg) Run(context.Context, *dataset.Table, engine.Spec) (*engine.Result, error) {
	return nil, errors.New("fake: not runnable")
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	engine.Register(fakeAlg{name: "engine-test-fake"})
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	engine.Register(fakeAlg{name: "engine-test-fake"})
}

// TestRegisterRejectsUncheckableRequiredParam checks that a Required
// parameter Validate has no rule for fails at registration instead of
// silently going unchecked.
func TestRegisterRejectsUncheckableRequiredParam(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Register accepted a required parameter without a validation rule")
		}
	}()
	engine.Register(fakeAlg{name: "engine-test-uncheckable", params: []engine.Param{
		{Name: "epsilon", Type: "float", Required: true},
	}})
}
