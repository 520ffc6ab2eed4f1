package reconcile

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeEngine executes reconciliations inline and records outcomes. fail
// holds the number of Publish calls that should fail before succeeding.
type fakeEngine struct {
	mu         sync.Mutex
	fail       int
	published  int
	noops      int
	gen        uint64 // generation Publish reconciles to
	fp         string
	enqueueErr error
	blocked    chan struct{} // when non-nil, Publish waits on it
}

func (f *fakeEngine) Enqueue(spec string, run func(ctx context.Context)) error {
	f.mu.Lock()
	err := f.enqueueErr
	f.mu.Unlock()
	if err != nil {
		return err
	}
	go run(context.Background())
	return nil
}

func (f *fakeEngine) Publish(ctx context.Context, spec string) (uint64, string, error) {
	f.mu.Lock()
	blocked := f.blocked
	f.mu.Unlock()
	if blocked != nil {
		<-blocked
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail > 0 {
		f.fail--
		return 0, "", errors.New("synthetic publish failure")
	}
	f.published++
	return f.gen, f.fp, nil
}

func (f *fakeEngine) Noop(spec string, gen uint64, fp string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.noops++
	return nil
}

func (f *fakeEngine) counts() (published, noops int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.published, f.noops
}

// waitStatus polls until the spec reaches the wanted state and reconciled
// generation or the deadline passes.
func waitStatus(t *testing.T, m *Manager, spec, state string, gen uint64) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, ok := m.Status(spec)
		if ok && st.State == state && st.ReconciledGeneration == gen {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("spec %s did not reach state=%s gen=%d (last: %+v, tracked=%v)", spec, state, gen, st, ok)
		}
		time.Sleep(time.Millisecond)
	}
}

func newTestManager(eng Engine) *Manager {
	return New(Config{Engine: eng, BackoffBase: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond})
}

func TestReconcileOnTrackLag(t *testing.T) {
	eng := &fakeEngine{gen: 3, fp: "fp3"}
	m := newTestManager(eng)
	defer m.Close()
	// A recovered spec whose dataset moved while the server was down
	// reconciles immediately.
	m.Track("s", "ds", 3, "fp3", 1, "fp1")
	st := waitStatus(t, m, "s", "idle", 3)
	if st.ReconciledFingerprint != "fp3" {
		t.Errorf("fingerprint = %q, want fp3", st.ReconciledFingerprint)
	}
	if p, _ := eng.counts(); p != 1 {
		t.Errorf("published = %d, want 1", p)
	}
	if s := m.Stats(); s.Success != 1 || s.Specs != 1 || s.Lag != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestReconcileInSyncStaysIdle(t *testing.T) {
	eng := &fakeEngine{}
	m := newTestManager(eng)
	defer m.Close()
	m.Track("s", "ds", 2, "fp2", 2, "fp2")
	time.Sleep(10 * time.Millisecond)
	if p, n := eng.counts(); p != 0 || n != 0 {
		t.Errorf("runs = %d/%d, want none", p, n)
	}
	if st, _ := m.Status("s"); st.State != "idle" {
		t.Errorf("state = %s", st.State)
	}
}

func TestFingerprintShortCircuit(t *testing.T) {
	eng := &fakeEngine{}
	m := newTestManager(eng)
	defer m.Close()
	m.Track("s", "ds", 1, "fp1", 1, "fp1")
	// The dataset is replaced with byte-identical content: new generation,
	// same fingerprint. No publish runs; the generation bump is recorded.
	m.Notify("ds", 2, "fp1")
	waitStatus(t, m, "s", "idle", 2)
	p, n := eng.counts()
	if p != 0 || n != 1 {
		t.Errorf("published/noops = %d/%d, want 0/1", p, n)
	}
	if s := m.Stats(); s.Noop != 1 || s.Success != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBackoffRetriesUntilSuccess(t *testing.T) {
	eng := &fakeEngine{fail: 2, gen: 2, fp: "fp2"}
	m := newTestManager(eng)
	defer m.Close()
	m.Track("s", "ds", 1, "fp1", 1, "fp1")
	m.Notify("ds", 2, "fp2")
	st := waitStatus(t, m, "s", "idle", 2)
	if st.Retries != 0 || st.LastError != "" {
		t.Errorf("settled status carries failure state: %+v", st)
	}
	if s := m.Stats(); s.Errors != 2 || s.Retries != 2 || s.Success != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBackoffSurfacesError(t *testing.T) {
	eng := &fakeEngine{fail: 1 << 30, gen: 2, fp: "fp2"}
	m := New(Config{Engine: eng, BackoffBase: time.Minute, BackoffMax: time.Minute})
	defer m.Close()
	m.Track("s", "ds", 2, "fp2", 1, "fp1")
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := m.Status("s")
		if st.State == "backoff" {
			if st.Retries != 1 || st.LastError == "" {
				t.Errorf("backoff status = %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spec never entered backoff: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEnqueueFailureBacksOff(t *testing.T) {
	eng := &fakeEngine{gen: 2, fp: "fp2"}
	eng.enqueueErr = errors.New("queue full")
	m := newTestManager(eng)
	defer m.Close()
	m.Track("s", "ds", 2, "fp2", 1, "fp1")
	// Wait for at least one failed attempt, then clear the queue pressure
	// and let the retry succeed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := m.Stats(); s.Errors >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("enqueue failure never counted")
		}
		time.Sleep(time.Millisecond)
	}
	eng.mu.Lock()
	eng.enqueueErr = nil
	eng.mu.Unlock()
	waitStatus(t, m, "s", "idle", 2)
}

func TestPerSpecSerialization(t *testing.T) {
	eng := &fakeEngine{gen: 2, fp: "fp2", blocked: make(chan struct{})}
	m := newTestManager(eng)
	defer m.Close()
	m.Track("s", "ds", 2, "fp2", 1, "fp1")
	// While the first run is blocked, further notifications must not start
	// a second one.
	for g := uint64(3); g <= 6; g++ {
		m.Notify("ds", g, fmt.Sprintf("fp%d", g))
	}
	time.Sleep(5 * time.Millisecond)
	if p, _ := eng.counts(); p != 0 {
		t.Fatalf("published = %d while first run still blocked", p)
	}
	eng.mu.Lock()
	eng.gen, eng.fp = 6, "fp6"
	blocked := eng.blocked
	eng.blocked = nil
	eng.mu.Unlock()
	close(blocked)
	// The blocked run finishes (reconciling to 6 — Publish reads current
	// state), and the finish re-check sees no remaining lag: exactly one
	// more run at most.
	waitStatus(t, m, "s", "idle", 6)
	if p, _ := eng.counts(); p > 2 {
		t.Errorf("published = %d, want at most 2 (per-spec serialization)", p)
	}
}

func TestForgetDropsSpec(t *testing.T) {
	eng := &fakeEngine{gen: 2, fp: "fp2"}
	m := newTestManager(eng)
	defer m.Close()
	m.Track("s", "ds", 1, "fp1", 1, "fp1")
	m.Forget("s")
	if _, ok := m.Status("s"); ok {
		t.Fatal("forgotten spec still tracked")
	}
	m.Notify("ds", 2, "fp2")
	time.Sleep(10 * time.Millisecond)
	if p, n := eng.counts(); p != 0 || n != 0 {
		t.Errorf("forgotten spec still reconciles: %d/%d", p, n)
	}
	if s := m.Stats(); s.Specs != 0 {
		t.Errorf("specs = %d", s.Specs)
	}
}

func TestCloseStopsLoop(t *testing.T) {
	eng := &fakeEngine{gen: 2, fp: "fp2"}
	m := newTestManager(eng)
	m.Track("s", "ds", 1, "fp1", 1, "fp1")
	m.Close()
	m.Notify("ds", 2, "fp2")
	time.Sleep(10 * time.Millisecond)
	if p, n := eng.counts(); p != 0 || n != 0 {
		t.Errorf("closed manager still reconciles: %d/%d", p, n)
	}
}

// settledManager returns a test manager whose Logf hook, called once per
// settled reconciliation after its bookkeeping, signals the returned channel.
// Benchmarks block on it rather than spinning on Status, which would measure
// the scheduler instead of the reconciler.
func settledManager(eng Engine) (*Manager, <-chan struct{}) {
	settled := make(chan struct{}, 1) // one reconciliation in flight at a time
	m := New(Config{
		Engine:      eng,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Logf:        func(string, ...any) { settled <- struct{}{} },
	})
	return m, settled
}

// awaitSettled blocks until the next reconciliation settles and checks that
// it reconciled the spec to gen.
func awaitSettled(b *testing.B, m *Manager, settled <-chan struct{}, gen uint64) {
	<-settled
	if st, _ := m.Status("s"); st.ReconciledGeneration != gen {
		b.Fatalf("reconciled generation %d, want %d", st.ReconciledGeneration, gen)
	}
}

// BenchmarkReconcileNoop measures the fingerprint short-circuit: a
// generation bump whose content is byte-identical settles without an
// executor run.
func BenchmarkReconcileNoop(b *testing.B) {
	eng := &fakeEngine{}
	m, settled := settledManager(eng)
	defer m.Close()
	m.Track("s", "ds", 1, "fp", 1, "fp")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := uint64(i + 2)
		m.Notify("ds", gen, "fp")
		awaitSettled(b, m, settled, gen)
	}
}

// BenchmarkReconcileSwap measures a full reconciliation cycle: notify,
// enqueue, publish, swap bookkeeping.
func BenchmarkReconcileSwap(b *testing.B) {
	eng := &fakeEngine{}
	m, settled := settledManager(eng)
	defer m.Close()
	m.Track("s", "ds", 1, "fp1", 1, "fp1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := uint64(i + 2)
		fp := fmt.Sprintf("fp%d", gen)
		eng.mu.Lock()
		eng.gen, eng.fp = gen, fp
		eng.mu.Unlock()
		m.Notify("ds", gen, fp)
		awaitSettled(b, m, settled, gen)
	}
}
