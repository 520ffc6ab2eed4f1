package engine_test

import (
	"sync"
	"testing"

	"github.com/ppdp/ppdp/internal/engine"
	_ "github.com/ppdp/ppdp/internal/engine/all"
)

func TestMonotoneNilStaysNil(t *testing.T) {
	if engine.Monotone(nil) != nil {
		t.Error("Monotone(nil) should stay nil so algorithms keep their disabled fast path")
	}
}

func TestMonotoneDropsStaleEvents(t *testing.T) {
	type ev struct{ done, total int }
	var got []ev
	sink := engine.Monotone(func(done, total int) { got = append(got, ev{done, total}) })

	// Out-of-order counter values, as a worker pool would publish them.
	for _, e := range []ev{{0, 10}, {2, 10}, {1, 10}, {2, 10}, {5, 10}, {4, 10}, {10, 10}} {
		sink(e.done, e.total)
	}
	want := []ev{{0, 10}, {2, 10}, {5, 10}, {10, 10}}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

// TestMonotoneRaceSafety hammers one wrapped sink from many goroutines; the
// race detector guards the wrapper and the test asserts the delivered stream
// is strictly increasing regardless of interleaving.
func TestMonotoneRaceSafety(t *testing.T) {
	var mu sync.Mutex
	var delivered []int
	sink := engine.Monotone(func(done, total int) {
		mu.Lock()
		delivered = append(delivered, done)
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sink(g*500+i, 4000)
			}
		}(g)
	}
	wg.Wait()
	for i := 1; i < len(delivered); i++ {
		if delivered[i] <= delivered[i-1] {
			t.Fatalf("delivered stream not strictly increasing at %d: %v <= %v", i, delivered[i], delivered[i-1])
		}
	}
}

// TestParamDefaultsAgree asserts that algorithms declaring the same wire
// parameter declare the same default, so the one value the CLI help text
// documents per flag holds for every algorithm that reads it.
func TestParamDefaultsAgree(t *testing.T) {
	defaults := make(map[string]any)
	owner := make(map[string]string)
	for _, info := range engine.Infos() {
		for _, p := range info.Parameters {
			if p.Default == nil {
				continue
			}
			if prev, ok := defaults[p.Name]; ok {
				if prev != p.Default {
					t.Errorf("parameter %q: %s declares default %v but %s declares %v",
						p.Name, owner[p.Name], prev, info.Name, p.Default)
				}
				continue
			}
			defaults[p.Name] = p.Default
			owner[p.Name] = info.Name
		}
	}
}

func TestParamDefaultHelpers(t *testing.T) {
	if got := (engine.Param{Default: 7}).IntDefault(3); got != 7 {
		t.Errorf("IntDefault with declared default = %d, want 7", got)
	}
	if got := (engine.Param{}).IntDefault(3); got != 3 {
		t.Errorf("IntDefault fallback = %d, want 3", got)
	}
	if got := (engine.Param{Default: 0.5}).FloatDefault(1); got != 0.5 {
		t.Errorf("FloatDefault with declared default = %v, want 0.5", got)
	}
	if got := (engine.Param{Default: 2}).FloatDefault(1); got != 2 {
		t.Errorf("FloatDefault with int default = %v, want 2", got)
	}
	if got := (engine.Param{}).FloatDefault(1); got != 1 {
		t.Errorf("FloatDefault fallback = %v, want 1", got)
	}
}
