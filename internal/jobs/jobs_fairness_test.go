package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestNoStarvationAcrossTenants is the fair-share acceptance property: tenant
// A saturates the service with a 50-job burst, then tenant B submits one job;
// B must start within one run slot — at most one more A job may begin between
// B's submission and B's start — for every worker count. Runners are gated so
// run slots free one at a time, making the dispatch order fully deterministic
// to observe.
func TestNoStarvationAcrossTenants(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const burst = 50
			m := newTestManager(t, Config{Workers: workers, QueueDepth: burst + 1})
			started := make(chan string, burst+1)
			release := make(chan struct{})
			runner := func(tenant string) Runner {
				return func(ctx context.Context, _ func(done, total int)) (any, error) {
					started <- tenant
					select {
					case <-release:
						return nil, nil
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
			}
			for i := 0; i < burst; i++ {
				if _, err := m.Submit(runner("A"), Options{Tenant: "A"}); err != nil {
					t.Fatalf("submit A #%d: %v", i, err)
				}
			}
			// Let the pool fill: every worker is now pinned on an A job.
			for i := 0; i < workers; i++ {
				if got := <-started; got != "A" {
					t.Fatalf("pre-burst start %d: got tenant %q, want A", i, got)
				}
			}
			if _, err := m.Submit(runner("B"), Options{Tenant: "B"}); err != nil {
				t.Fatalf("submit B: %v", err)
			}
			// Free run slots one at a time and watch who gets each.
			aStartsBeforeB := 0
			for {
				release <- struct{}{}
				tenant := <-started
				if tenant == "B" {
					break
				}
				aStartsBeforeB++
				if aStartsBeforeB > 1 {
					t.Fatalf("tenant B starved: %d A jobs started after B's submission", aStartsBeforeB)
				}
			}
			// Drain: unblock everything still running or queued.
			close(release)
			for i := 0; i < burst-workers-aStartsBeforeB; i++ {
				<-started
			}
		})
	}
}

// TestRoundRobinMatchesReferenceSimulation submits a randomized multi-tenant
// interleaving while the single worker is plugged, then checks the actual
// execution order against an independent round-robin oracle: tenants rotate
// in order of first submission, each contributing its oldest queued job per
// turn. This implies per-tenant FIFO (each tenant's jobs run in submission
// order) and cross-tenant fairness in one equality.
func TestRoundRobinMatchesReferenceSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tenants := []string{"alpha", "beta", "gamma", "delta"}
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(30)
		submissions := make([]string, n)
		for i := range submissions {
			submissions[i] = tenants[rng.Intn(len(tenants))]
		}

		m := newTestManager(t, Config{Workers: 1, QueueDepth: n + 1})
		var mu sync.Mutex
		var order []string // "tenant/seq" in execution order
		plugRelease := make(chan struct{})
		plugEntered := make(chan string, 1)
		if _, err := m.Submit(gatedRunner(plugEntered, plugRelease, nil), Options{Tenant: "plug"}); err != nil {
			t.Fatalf("trial %d: submit plug: %v", trial, err)
		}
		<-plugEntered // worker is pinned; all further submissions stay queued

		perTenantSeq := map[string]int{}
		var wantIDs []string
		for _, tenant := range submissions {
			seq := perTenantSeq[tenant]
			perTenantSeq[tenant]++
			label := fmt.Sprintf("%s/%d", tenant, seq)
			wantIDs = append(wantIDs, label)
			if _, err := m.Submit(func(ctx context.Context, _ func(done, total int)) (any, error) {
				mu.Lock()
				order = append(order, label)
				mu.Unlock()
				return nil, nil
			}, Options{Tenant: tenant, Meta: label}); err != nil {
				t.Fatalf("trial %d: submit %s: %v", trial, label, err)
			}
		}

		want := referenceRoundRobin(submissions, wantIDs)

		// Before anything dispatches, every queued job's QueuePos must equal
		// its 1-based rank in the oracle's dispatch order.
		wantRank := map[string]int{}
		for i, label := range want {
			wantRank[label] = i + 1
		}
		for _, s := range m.List() {
			if s.State != Queued {
				continue
			}
			label, _ := s.Meta.(string)
			if s.QueuePos != wantRank[label] {
				t.Fatalf("trial %d: job %s (%s) reports QueuePos %d, oracle says %d",
					trial, s.ID, label, s.QueuePos, wantRank[label])
			}
		}

		close(plugRelease)
		deadline := time.Now().Add(10 * time.Second)
		for {
			q, r, _ := m.Counts()
			if q == 0 && r == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("trial %d: jobs did not drain", trial)
			}
			time.Sleep(time.Millisecond)
		}

		mu.Lock()
		got := append([]string(nil), order...)
		mu.Unlock()
		if len(got) != len(want) {
			t.Fatalf("trial %d: executed %d jobs, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: execution order diverges at %d: got %q, want %q\nfull got:  %v\nfull want: %v",
					trial, i, got[i], want[i], got, want)
			}
		}
	}
}

// referenceRoundRobin is the independent oracle: given the submission order
// of tenants (and the matching job labels), it returns the label order a
// per-tenant round-robin dispatcher produces when every job is queued before
// the first dispatch. Tenants enter the rotation in order of first
// submission; each rotation turn takes the tenant's oldest job; an exhausted
// tenant leaves the rotation without advancing the cursor.
func referenceRoundRobin(submissions, labels []string) []string {
	queues := map[string][]string{}
	var rotation []string
	for i, tenant := range submissions {
		if len(queues[tenant]) == 0 {
			rotation = append(rotation, tenant)
		}
		queues[tenant] = append(queues[tenant], labels[i])
	}
	var out []string
	cur := 0
	for len(rotation) > 0 {
		if cur >= len(rotation) {
			cur = 0
		}
		tenant := rotation[cur]
		q := queues[tenant]
		out = append(out, q[0])
		q = q[1:]
		queues[tenant] = q
		if len(q) == 0 {
			rotation = append(rotation[:cur], rotation[cur+1:]...)
		} else {
			cur++
		}
	}
	return out
}

// TestTenantQuota exercises Config.MaxPerTenant: the cap counts queued plus
// running jobs, rejects the overflow submission with ErrTenantQuota, leaves
// other tenants unaffected, and frees capacity as jobs finish.
func TestTenantQuota(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 16, MaxPerTenant: 2})
	entered := make(chan string, 4)
	release := make(chan struct{})
	if _, err := m.Submit(gatedRunner(entered, release, nil), Options{Tenant: "A"}); err != nil {
		t.Fatalf("submit A1: %v", err)
	}
	<-entered // A1 running
	if _, err := m.Submit(gatedRunner(nil, release, nil), Options{Tenant: "A"}); err != nil {
		t.Fatalf("submit A2: %v", err)
	}
	_, err := m.Submit(gatedRunner(nil, release, nil), Options{Tenant: "A"})
	if !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("A3 over quota: got %v, want ErrTenantQuota", err)
	}
	// Another tenant is not affected by A's saturation.
	if _, err := m.Submit(gatedRunner(nil, release, nil), Options{Tenant: "B"}); err != nil {
		t.Fatalf("submit B1: %v", err)
	}
	m.mu.Lock()
	a, b := m.tenants["A"].active, m.tenants["B"].active
	m.mu.Unlock()
	if a != 2 || b != 1 {
		t.Fatalf("admitted per tenant = A:%d B:%d, want A:2 B:1", a, b)
	}
	// Finishing A's jobs frees quota.
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if q, r, _ := m.Counts(); q == 0 && r == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs did not drain")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(func(ctx context.Context, _ func(int, int)) (any, error) {
		return nil, nil
	}, Options{Tenant: "A"}); err != nil {
		t.Fatalf("submit A after drain: %v", err)
	}
}

// recordingObserver collects lifecycle events for assertions.
type recordingObserver struct {
	mu       sync.Mutex
	started  []string
	finished map[State]int
	waits    []time.Duration
}

func (o *recordingObserver) JobStarted(tenant string, wait time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.started = append(o.started, tenant)
	o.waits = append(o.waits, wait)
}

func (o *recordingObserver) JobFinished(tenant string, state State) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.finished == nil {
		o.finished = map[State]int{}
	}
	o.finished[state]++
}

// TestObserverLifecycleEvents checks the Observer hook: one JobStarted per
// dispatched job with a non-negative queue wait, and one JobFinished per
// terminal transition — including queued-then-canceled jobs that never ran
// and born-succeeded Complete jobs.
func TestObserverLifecycleEvents(t *testing.T) {
	obs := &recordingObserver{}
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 8, Observer: obs})
	entered := make(chan string, 1)
	release := make(chan struct{})
	if _, err := m.Submit(gatedRunner(entered, release, nil), Options{Tenant: "A"}); err != nil {
		t.Fatalf("submit gate: %v", err)
	}
	<-entered
	queued, err := m.Submit(gatedRunner(nil, release, nil), Options{Tenant: "A"})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if _, err := m.Complete("cached", Options{Tenant: "B"}); err != nil {
		t.Fatalf("complete: %v", err)
	}
	failing, err := m.Submit(func(ctx context.Context, _ func(int, int)) (any, error) {
		return nil, errors.New("boom")
	}, Options{Tenant: "A"})
	if err != nil {
		t.Fatalf("submit failing: %v", err)
	}
	close(release)
	if _, err := m.Wait(context.Background(), failing.ID); err != nil {
		t.Fatalf("wait failing: %v", err)
	}

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.started) != 2 { // the gate job and the failing job; canceled+Complete never start
		t.Errorf("JobStarted fired %d times, want 2 (%v)", len(obs.started), obs.started)
	}
	for i, w := range obs.waits {
		if w < 0 {
			t.Errorf("queue wait %d is negative: %v", i, w)
		}
	}
	want := map[State]int{Succeeded: 2, Canceled: 1, Failed: 1}
	for state, n := range want {
		if obs.finished[state] != n {
			t.Errorf("JobFinished[%s] = %d, want %d (all: %v)", state, obs.finished[state], n, obs.finished)
		}
	}
}
