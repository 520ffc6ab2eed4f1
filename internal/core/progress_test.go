package core

import (
	"context"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/synth"
	"github.com/ppdp/ppdp/internal/testctx"
)

// progressEvent is one recorded (done, total) sink call.
type progressEvent struct{ done, total int }

// progressConfig builds a runnable Config for one registered algorithm on the
// fixture that suits it (anatomy needs the hospital's l-eligible sensitive
// distribution; everything else runs on census).
func progressConfig(name string) (Config, *dataset.Table) {
	switch name {
	case "anatomy":
		return Config{Algorithm: Algorithm(name), Policy: &policy.Policy{Criteria: []policy.Criterion{distinctL(3, "")}}},
			synth.Hospital(300, 9)
	case "republish":
		pol := &policy.Policy{Criteria: []policy.Criterion{
			{Type: policy.MInvariance, M: 2, ID: "name", Sensitive: "diagnosis"},
		}}
		return Config{Algorithm: Algorithm(name), Policy: pol}, synth.Hospital(300, 9)
	default:
		return Config{
			Algorithm:        Algorithm(name),
			Policy:           withSuppression(kPolicy(10), 0.02),
			QuasiIdentifiers: []string{"age", "sex", "education", "marital-status", "race"},
			Hierarchies:      synth.CensusHierarchies(),
			Workers:          2,
		}, synth.Census(300, 9)
	}
}

// TestProgressReportingAllAlgorithms asserts the engine-level progress
// contract for every registered algorithm: the delivered stream is strictly
// increasing in done, carries one fixed total, includes at least one
// intermediate event strictly between 0 and completion, and ends with a
// (total, total) completion event.
func TestProgressReportingAllAlgorithms(t *testing.T) {
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			cfg, fixture := progressConfig(name)
			var events []progressEvent
			cfg.Progress = func(done, total int) {
				events = append(events, progressEvent{done, total})
			}
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := a.Anonymize(fixture)
			if err != nil {
				t.Fatal(err)
			}
			if rel == nil {
				t.Fatal("no release")
			}
			if len(events) < 3 {
				t.Fatalf("only %d progress events delivered: %v", len(events), events)
			}
			total := events[0].total
			if total <= 0 {
				t.Fatalf("non-positive total in first event: %+v", events[0])
			}
			intermediate := false
			for i, e := range events {
				if e.total != total {
					t.Errorf("event %d changed total: %+v (run total %d)", i, e, total)
				}
				if i > 0 && e.done <= events[i-1].done {
					t.Errorf("event %d not strictly increasing: %v after %v", i, e, events[i-1])
				}
				if e.done > e.total {
					t.Errorf("event %d overshoots total: %+v", i, e)
				}
				if e.done > 0 && e.done < total {
					intermediate = true
				}
			}
			if !intermediate {
				t.Errorf("no intermediate event strictly between 0 and %d: %v", total, events)
			}
			if last := events[len(events)-1]; last.done != total {
				t.Errorf("final event %+v does not complete the run (total %d)", last, total)
			}
		})
	}
}

// TestProgressSilentAfterCancel asserts a canceled run does not fabricate a
// completion event: every delivered done stays below the total.
func TestProgressSilentAfterCancel(t *testing.T) {
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			cfg, fixture := progressConfig(name)
			cfg.Workers = 1 // deterministic poll counting
			var events []progressEvent
			// Mondrian observes cancellation through the context's Done
			// channel rather than Err() polls, so testctx's poll countdown
			// never trips it; cancel from inside the sink instead — the
			// fixtures all deliver well over three events (see
			// TestProgressReportingAllAlgorithms), so the run is aborted
			// reliably mid-flight either way.
			ctx := testctx.CancelAfter(3)
			cancel := context.CancelFunc(func() {})
			if name == "mondrian" {
				ctx, cancel = context.WithCancel(context.Background())
			}
			defer cancel()
			cfg.Progress = func(done, total int) {
				events = append(events, progressEvent{done, total})
				if len(events) == 3 {
					cancel()
				}
			}
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.AnonymizeContext(ctx, fixture); err == nil {
				t.Fatal("run with a tripping context succeeded")
			}
			for _, e := range events {
				if e.total > 0 && e.done >= e.total {
					t.Errorf("canceled run reported completion: %+v", e)
				}
			}
		})
	}
}

func TestWithProgressLeavesReceiverUntouched(t *testing.T) {
	cfg, fixture := progressConfig("mondrian")
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	b := a.WithProgress(func(done, total int) { called = true })
	if _, err := b.Anonymize(fixture); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("WithProgress sink never called")
	}
	if a.cfg.Progress != nil {
		t.Error("WithProgress mutated the receiver's configuration")
	}
	// The original anonymizer still runs silently.
	called = false
	if _, err := a.Anonymize(fixture); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("original anonymizer reported to the copy's sink")
	}
}
