package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestManager builds a manager that the test always closes.
func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m := New(cfg)
	t.Cleanup(m.Close)
	return m
}

// gatedRunner returns a runner that signals `entered` when it starts and then
// blocks until release is closed or the job context is canceled — the
// deterministic hook that lets tests pin a job in the running state.
func gatedRunner(entered chan<- string, release <-chan struct{}, result any) Runner {
	return func(ctx context.Context, progress func(done, total int)) (any, error) {
		if entered != nil {
			entered <- "entered"
		}
		select {
		case <-release:
			return result, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func TestJobLifecycleSucceeds(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	snap, err := m.Submit(func(ctx context.Context, progress func(done, total int)) (any, error) {
		progress(1, 2)
		progress(2, 2)
		return "payload", nil
	}, Options{Meta: "meta"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap.State != Queued || snap.ID == "" {
		t.Fatalf("initial snapshot = %+v, want queued with id", snap)
	}
	final, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != Succeeded {
		t.Fatalf("final state = %s (err %v), want succeeded", final.State, final.Err)
	}
	if final.Result != "payload" || final.Meta != "meta" {
		t.Errorf("final snapshot result/meta = %v/%v", final.Result, final.Meta)
	}
	if final.Progress != (Progress{Done: 2, Total: 2}) {
		t.Errorf("final progress = %+v, want 2/2", final.Progress)
	}
	if final.Created.IsZero() || final.Started.IsZero() || final.Finished.IsZero() {
		t.Errorf("lifecycle timestamps incomplete: %+v", final)
	}
}

func TestJobLifecycleFails(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	boom := errors.New("boom")
	snap, err := m.Submit(func(context.Context, func(int, int)) (any, error) {
		return nil, boom
	}, Options{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != Failed || !errors.Is(final.Err, boom) {
		t.Fatalf("final = %s/%v, want failed/boom", final.State, final.Err)
	}
}

func TestQueueFullRejectsSubmission(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 1})
	entered := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)

	// Occupy the single worker...
	running, err := m.Submit(gatedRunner(entered, release, nil), Options{})
	if err != nil {
		t.Fatalf("Submit running: %v", err)
	}
	<-entered
	// ...fill the one queue slot...
	queued, err := m.Submit(gatedRunner(nil, release, nil), Options{})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	if got, _ := m.Get(queued.ID); got.QueuePos != 1 {
		t.Errorf("queued job position = %d, want 1", got.QueuePos)
	}
	// ...and the next submission must be rejected.
	if _, err := m.Submit(gatedRunner(nil, release, nil), Options{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow Submit error = %v, want ErrQueueFull", err)
	}
	if q, r, _ := m.Counts(); q != 1 || r != 1 {
		t.Errorf("Counts = %d queued %d running, want 1/1", q, r)
	}
	_ = running
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 4})
	entered := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	if _, err := m.Submit(gatedRunner(entered, release, nil), Options{}); err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	<-entered

	ran := make(chan struct{})
	queued, err := m.Submit(func(context.Context, func(int, int)) (any, error) {
		close(ran)
		return nil, nil
	}, Options{})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	snap, err := m.Get(queued.ID)
	if err != nil || snap.State != Canceled {
		t.Fatalf("after cancel: %+v, %v; want canceled", snap, err)
	}
	// Unblock the worker; the canceled job must never start.
	select {
	case <-ran:
		t.Fatal("canceled queued job still ran")
	case <-time.After(20 * time.Millisecond):
	}
	if err := m.Cancel(queued.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("second cancel error = %v, want ErrFinished", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	entered := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	snap, err := m.Submit(gatedRunner(entered, release, nil), Options{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-entered
	if err := m.Cancel(snap.ID); err != nil {
		t.Fatalf("Cancel running: %v", err)
	}
	final, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != Canceled || !errors.Is(final.Err, context.Canceled) {
		t.Fatalf("final = %s/%v, want canceled/context.Canceled", final.State, final.Err)
	}
}

// TestPanickingRunnerFailsJobOnly pins the containment guarantee: a panic in
// one job's Runner becomes that job's failure, the worker survives, and the
// manager keeps serving subsequent jobs.
func TestPanickingRunnerFailsJobOnly(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	bad, err := m.Submit(func(context.Context, func(int, int)) (any, error) {
		panic("algorithm bug")
	}, Options{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final, err := m.Wait(context.Background(), bad.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != Failed || final.Err == nil || !strings.Contains(final.Err.Error(), "algorithm bug") {
		t.Fatalf("panicked job = %s/%v, want failed with the panic value", final.State, final.Err)
	}
	// The single worker survived the panic and still runs jobs.
	good, err := m.Submit(func(context.Context, func(int, int)) (any, error) { return "ok", nil }, Options{})
	if err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	if snap, err := m.Wait(context.Background(), good.ID); err != nil || snap.State != Succeeded {
		t.Fatalf("job after panic = %+v, %v; want succeeded", snap, err)
	}
}

func TestRunTimeoutFailsJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	snap, err := m.Submit(func(ctx context.Context, _ func(int, int)) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, Options{Timeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != Failed || !errors.Is(final.Err, context.DeadlineExceeded) {
		t.Fatalf("final = %s/%v, want failed/deadline exceeded", final.State, final.Err)
	}
}

func TestWaitHonorsCallerContext(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	entered := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	snap, err := m.Submit(gatedRunner(entered, release, nil), Options{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Wait(ctx, snap.ID); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait error = %v, want context.Canceled", err)
	}
	// The job itself is untouched by the caller's context.
	if got, _ := m.Get(snap.ID); got.State != Running {
		t.Errorf("job state after abandoned Wait = %s, want running", got.State)
	}
}

func TestTTLEvictsFinishedJobs(t *testing.T) {
	clock := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		mu.Lock()
		clock = clock.Add(d)
		mu.Unlock()
	}
	m := newTestManager(t, Config{Workers: 1, TTL: time.Minute, Now: now})
	snap, err := m.Submit(func(context.Context, func(int, int)) (any, error) { return nil, nil }, Options{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := m.Wait(context.Background(), snap.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// Still retained inside the TTL...
	advance(59 * time.Second)
	if got, err := m.Get(snap.ID); err != nil || !got.State.Terminal() {
		t.Fatalf("inside TTL: %+v, %v; want retained terminal job", got, err)
	}
	// ...gone after it.
	advance(2 * time.Second)
	if _, err := m.Get(snap.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after TTL: error = %v, want ErrNotFound", err)
	}
	if len(m.List()) != 0 {
		t.Errorf("List after TTL = %v, want empty", m.List())
	}
}

// TestConcurrentSubmitPollCancel hammers one manager from many goroutines —
// submissions racing polls, cancels and completions — and checks the final
// accounting. Run with -race, this is the jobs-layer concurrency guard.
func TestConcurrentSubmitPollCancel(t *testing.T) {
	m := newTestManager(t, Config{Workers: 4, QueueDepth: 1024})
	const n = 60
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap, err := m.Submit(func(ctx context.Context, progress func(done, total int)) (any, error) {
				for u := 1; u <= 10; u++ {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					progress(u, 10)
				}
				return i, nil
			}, Options{Meta: i})
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			ids[i] = snap.ID
			// Poll concurrently with the run.
			if _, err := m.Get(snap.ID); err != nil {
				t.Errorf("Get %d: %v", i, err)
			}
			if i%3 == 0 {
				// Cancel a third of the jobs at a random point in their life;
				// both outcomes (canceled in time, or already finished) are
				// legal — the invariant is a clean terminal state.
				_ = m.Cancel(snap.ID)
			}
			final, err := m.Wait(context.Background(), snap.ID)
			if err != nil {
				t.Errorf("Wait %d: %v", i, err)
				return
			}
			if !final.State.Terminal() {
				t.Errorf("job %d final state %s not terminal", i, final.State)
			}
			if final.State == Succeeded && final.Result != i {
				t.Errorf("job %d result = %v, want %d", i, final.Result, i)
			}
		}(i)
	}
	wg.Wait()
	if q, r, f := m.Counts(); q != 0 || r != 0 || f != n {
		t.Errorf("Counts = %d/%d/%d, want 0/0/%d", q, r, f, n)
	}
}

// TestFIFOOrder checks the admission queue is first-in-first-out: with one
// worker, jobs run in submission order.
func TestFIFOOrder(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 16})
	entered := make(chan string, 1)
	release := make(chan struct{})
	if _, err := m.Submit(gatedRunner(entered, release, nil), Options{}); err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	<-entered

	var mu sync.Mutex
	var order []int
	var ids []string
	for i := 0; i < 5; i++ {
		i := i
		snap, err := m.Submit(func(context.Context, func(int, int)) (any, error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil, nil
		}, Options{})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, snap.ID)
	}
	// Queue positions reflect submission order before the worker frees up.
	for i, id := range ids {
		if snap, _ := m.Get(id); snap.QueuePos != i+1 {
			t.Errorf("job %s queue position = %d, want %d", id, snap.QueuePos, i+1)
		}
	}
	close(release)
	for _, id := range ids {
		if _, err := m.Wait(context.Background(), id); err != nil {
			t.Fatalf("Wait %s: %v", id, err)
		}
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("run order = %v, want FIFO", order)
		}
	}
}

func TestCloseCancelsEverything(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 8})
	entered := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	running, err := m.Submit(gatedRunner(entered, release, nil), Options{})
	if err != nil {
		t.Fatalf("Submit running: %v", err)
	}
	<-entered
	queued, err := m.Submit(gatedRunner(nil, release, nil), Options{})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	m.Close()
	for _, id := range []string{running.ID, queued.ID} {
		snap, err := m.Get(id)
		if err != nil || snap.State != Canceled {
			t.Errorf("after Close, job %s = %+v, %v; want canceled", id, snap, err)
		}
	}
	if _, err := m.Submit(gatedRunner(nil, release, nil), Options{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close error = %v, want ErrClosed", err)
	}
}

func TestProgressSnapshotNeverRegresses(t *testing.T) {
	j := &job{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				j.report(g*1000+i, 4000)
			}
		}(g)
	}
	donech := make(chan struct{})
	go func() {
		defer close(donech)
		last := 0
		for i := 0; i < 10000; i++ {
			d := int(j.progressDone.Load())
			if d < last {
				t.Errorf("progress regressed: %d after %d", d, last)
				return
			}
			last = d
		}
	}()
	wg.Wait()
	<-donech
}

func TestForgetDropsTerminalJobsOnly(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	entered := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	running, err := m.Submit(gatedRunner(entered, release, nil), Options{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-entered
	if err := m.Forget(running.ID); err == nil {
		t.Error("Forget of a running job succeeded")
	}
	done, err := m.Submit(func(context.Context, func(int, int)) (any, error) { return "x", nil }, Options{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// The gated job holds the single worker; free it so the second job runs.
	if err := m.Cancel(running.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if _, err := m.Wait(context.Background(), done.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := m.Forget(done.ID); err != nil {
		t.Fatalf("Forget terminal job: %v", err)
	}
	if _, err := m.Get(done.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("forgotten job still retained: %v", err)
	}
	if err := m.Forget("j999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Forget unknown = %v, want ErrNotFound", err)
	}
}

// TestMaxFinishedCapsRetention submits more jobs than the retention cap and
// checks the oldest finished ones are evicted even though the TTL has not
// expired — results can be large, so a burst must not pin memory.
func TestMaxFinishedCapsRetention(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 32, MaxFinished: 3})
	var ids []string
	for i := 0; i < 8; i++ {
		snap, err := m.Submit(func(context.Context, func(int, int)) (any, error) { return nil, nil }, Options{})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, snap.ID)
		if _, err := m.Wait(context.Background(), snap.ID); err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
	}
	if got := len(m.List()); got > 3 {
		t.Errorf("retained %d finished jobs, cap is 3", got)
	}
	// The newest job survives; the oldest is gone.
	if _, err := m.Get(ids[len(ids)-1]); err != nil {
		t.Errorf("newest job evicted: %v", err)
	}
	if _, err := m.Get(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Errorf("oldest job retained beyond the cap: %v", err)
	}
}

func TestGetUnknownJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	if _, err := m.Get("j999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get unknown = %v, want ErrNotFound", err)
	}
	if err := m.Cancel("j999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel unknown = %v, want ErrNotFound", err)
	}
	if _, err := m.Wait(context.Background(), "j999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Wait unknown = %v, want ErrNotFound", err)
	}
}

// BenchmarkJobThroughput measures the manager's per-job overhead: submit and
// drain batches of trivial jobs through a small worker pool. The number is
// the full queued→running→succeeded round trip including snapshots.
func BenchmarkJobThroughput(b *testing.B) {
	m := New(Config{Workers: 4, QueueDepth: DefaultQueueDepth})
	defer m.Close()
	noop := Runner(func(context.Context, func(int, int)) (any, error) { return nil, nil })
	b.ReportAllocs()
	for i := 0; i < b.N; i += DefaultQueueDepth {
		batch := min(DefaultQueueDepth, b.N-i)
		ids := make([]string, 0, batch)
		for k := 0; k < batch; k++ {
			snap, err := m.Submit(noop, Options{})
			if err != nil {
				b.Fatalf("Submit: %v", err)
			}
			ids = append(ids, snap.ID)
		}
		for _, id := range ids {
			if _, err := m.Wait(context.Background(), id); err != nil {
				b.Fatalf("Wait: %v", err)
			}
		}
	}
}

func ExampleManager() {
	m := New(Config{Workers: 1})
	defer m.Close()
	snap, _ := m.Submit(func(ctx context.Context, progress func(done, total int)) (any, error) {
		progress(1, 1)
		return 42, nil
	}, Options{})
	final, _ := m.Wait(context.Background(), snap.ID)
	fmt.Println(final.State, final.Result)
	// Output: succeeded 42
}
