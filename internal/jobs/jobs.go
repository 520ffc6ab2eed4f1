// Package jobs is the asynchronous execution layer of the anonymization
// service: a job manager that runs arbitrary work on a bounded worker pool
// behind a tenant-fair admission queue, with job lifecycle states, live
// progress snapshots, per-job cancellation and TTL-based garbage collection
// of finished jobs.
//
// The manager is the single executor both request paths of the HTTP service
// share: POST /v1/jobs submits and returns immediately, while the synchronous
// /v1/anonymize submits and waits — so one admission queue governs both, and
// a saturated service rejects with ErrQueueFull instead of accepting
// unbounded concurrent work.
//
// Dispatch is per-tenant round-robin, not global FIFO: each tenant has its
// own FIFO queue, and free workers take the head job of the next tenant in a
// rotation. Within a tenant, submission order is preserved exactly; across
// tenants, a 50-job burst from one tenant cannot delay another tenant's
// first job by more than one run slot, because the newcomer joins the
// rotation and is picked on the next dispatch. Untenanted submissions share
// the "" tenant, which degenerates to the old global FIFO when the service
// runs unauthenticated.
//
// Lifecycle: a submitted job is queued until a worker picks it up, running
// while its Runner executes, and ends succeeded, failed or canceled. Queued
// jobs report their 1-based dispatch position; running jobs report the
// (done, total) progress their Runner publishes (the engine's per-algorithm
// sinks, for the anonymization service). Finished jobs are retained for
// Config.TTL so clients can poll the outcome, then evicted lazily by the
// next manager operation.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// State is a job's lifecycle state.
type State string

// Lifecycle states: queued → running → succeeded | failed | canceled.
const (
	Queued    State = "queued"
	Running   State = "running"
	Succeeded State = "succeeded"
	Failed    State = "failed"
	Canceled  State = "canceled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == Succeeded || s == Failed || s == Canceled
}

// Runner is one job's unit of work. It receives the job's context — canceled
// by Cancel, Close, or the job's run timeout — and a progress sink that feeds
// the job's live snapshot; both may be ignored by trivial work. The returned
// value is retained in the job's snapshot until the job is garbage-collected.
type Runner func(ctx context.Context, progress func(done, total int)) (any, error)

// Observer receives job lifecycle events for metrics. Both methods are called
// synchronously but outside the manager mutex, so implementations may call
// back into the Manager; they must be safe for concurrent use.
type Observer interface {
	// JobStarted fires when a worker picks a job up; queueWait is the time the
	// job spent queued.
	JobStarted(tenant string, queueWait time.Duration)
	// JobFinished fires when a job reaches a terminal state (including queued
	// jobs canceled before running and cache-hit jobs born succeeded via
	// Complete).
	JobFinished(tenant string, state State)
}

// Manager errors.
var (
	// ErrQueueFull rejects a submission when the admission queue is at
	// capacity. Callers translate it into backpressure (HTTP 429).
	ErrQueueFull = errors.New("jobs: admission queue is full")
	// ErrTenantQuota rejects a submission when the tenant already has
	// Config.MaxPerTenant jobs admitted (queued or running).
	ErrTenantQuota = errors.New("jobs: tenant job quota exceeded")
	// ErrNotFound is returned for unknown (or already evicted) job ids.
	ErrNotFound = errors.New("jobs: job not found")
	// ErrFinished rejects cancellation of a job that already reached a
	// terminal state.
	ErrFinished = errors.New("jobs: job already finished")
	// ErrClosed rejects submissions to a closed manager.
	ErrClosed = errors.New("jobs: manager is closed")
)

// Config tunes a Manager. The zero value is usable: GOMAXPROCS workers, a
// 64-deep queue and a 15-minute retention of finished jobs.
type Config struct {
	// Workers is the number of jobs that run concurrently (GOMAXPROCS when
	// zero). Each worker runs one job at a time, so Workers is the service's
	// admission-controlled concurrency bound.
	Workers int
	// QueueDepth bounds the jobs waiting for a worker, summed across all
	// tenants (64 when zero; the total admitted work is therefore Workers
	// running + QueueDepth queued). A full queue rejects submissions with
	// ErrQueueFull.
	QueueDepth int
	// MaxPerTenant, when positive, caps one tenant's admitted jobs (queued
	// plus running); submissions beyond it fail with ErrTenantQuota. Zero
	// means no per-tenant cap.
	MaxPerTenant int
	// TTL is how long finished jobs stay queryable (15 minutes when zero).
	// Eviction is lazy: every manager operation prunes expired jobs first.
	TTL time.Duration
	// MaxFinished caps how many finished jobs are retained inside the TTL
	// window (1024 when zero): results can be large (a job retains its full
	// response payload), so a burst of submissions must not pin unbounded
	// memory until the TTL expires. The oldest finished jobs are evicted
	// first.
	MaxFinished int
	// Now is the clock (time.Now when nil); tests inject a deterministic one
	// to exercise TTL eviction without sleeping.
	Now func() time.Time
	// Observer, when non-nil, receives lifecycle events for metrics.
	Observer Observer
}

// Defaults for the zero Config.
const (
	DefaultQueueDepth  = 64
	DefaultTTL         = 15 * time.Minute
	DefaultMaxFinished = 1024
)

// Progress is a point-in-time view of a job's reported progress.
type Progress struct {
	// Done and Total are the last (done, total) event the job's Runner
	// published; both zero before the first event.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Snapshot is a point-in-time view of one job.
type Snapshot struct {
	// ID is the manager-assigned job id ("j1", "j2", ...).
	ID string
	// Tenant is the tenant the job was submitted under ("" when untenanted).
	Tenant string
	// State is the lifecycle state at snapshot time.
	State State
	// Meta echoes the Options.Meta the job was submitted with.
	Meta any
	// Progress is the job's live progress (zero until the Runner reports).
	Progress Progress
	// QueuePos is the job's 1-based position in dispatch order across all
	// tenant queues (0 when not queued). With multiple active tenants this is
	// the round-robin pick order, not raw submission order.
	QueuePos int
	// Created, Started and Finished are the lifecycle timestamps (zero when
	// the phase has not been reached).
	Created  time.Time
	Started  time.Time
	Finished time.Time
	// Result is the Runner's return value (nil unless State is Succeeded).
	Result any
	// Err is the Runner's error (nil unless State is Failed or Canceled).
	Err error
}

// job is the manager-internal record. The manager mutex guards state and the
// timestamps; progress is atomic so high-frequency reporting never contends
// with snapshotting.
type job struct {
	id      string
	tenant  string
	meta    any
	run     Runner
	timeout time.Duration

	cancel    context.CancelFunc
	ctx       context.Context
	done      chan struct{} // closed on reaching a terminal state
	canceling bool          // Cancel was requested while running

	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	result   any
	err      error

	progressDone  atomic.Int64
	progressTotal atomic.Int64

	// tq is the tenant's admission record, set while the job is admitted
	// (queued or running) so dequeue and completion never need a map lookup.
	tq *tenantQueue
}

// tenantQueue is one tenant's admission state: its FIFO of queued jobs and
// the count of admitted (queued + running) jobs backing the quota check. The
// rotation references these records directly, so the per-job dispatch path
// touches no maps.
type tenantQueue struct {
	tenant string
	queue  []*job
	active int
}

// Manager runs jobs on a bounded worker pool behind per-tenant FIFO queues
// dispatched round-robin. Create one with New; it is safe for concurrent use.
type Manager struct {
	cfg  Config
	mu   sync.Mutex
	cond *sync.Cond

	jobs map[string]*job
	// Admission state: each tenant with admitted jobs has a record in
	// tenants; tenants with a non-empty queue additionally hold exactly one
	// slot in rotation, and rrNext is the rotation cursor. Newly active
	// tenants join at the END of the rotation — joining at the cursor would
	// bound the newcomer's wait tighter, but would let two alternating
	// tenants starve a third forever. queuedCount is the sum of all queue
	// lengths.
	tenants     map[string]*tenantQueue
	rotation    []*tenantQueue
	rrNext      int
	queuedCount int

	finished []*job // terminal jobs in finish order, for TTL eviction
	seq      int
	closed   bool
	wg       sync.WaitGroup
}

// New builds a Manager and starts its worker pool.
func New(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.MaxFinished <= 0 {
		cfg.MaxFinished = DefaultMaxFinished
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := &Manager{
		cfg:     cfg,
		jobs:    make(map[string]*job),
		tenants: make(map[string]*tenantQueue),
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Options tunes one submission.
type Options struct {
	// Tenant attributes the job to a tenant for fair-share dispatch and the
	// per-tenant quota ("" is the shared anonymous tenant).
	Tenant string
	// Meta is an arbitrary caller payload echoed in every Snapshot (the HTTP
	// service stores the request summary here for job listings).
	Meta any
	// Timeout, when positive, bounds the job's running phase: the job's
	// context gets the deadline when a worker picks it up, not while it waits
	// in the queue. 0 means no deadline.
	Timeout time.Duration
}

// Submit admits a job into its tenant's queue and returns its initial
// snapshot. It fails with ErrQueueFull when the admission queue is at
// capacity, ErrTenantQuota when the tenant's cap is reached, and ErrClosed
// after Close.
func (m *Manager) Submit(run Runner, opts Options) (Snapshot, error) {
	if run == nil {
		return Snapshot{}, errors.New("jobs: nil Runner")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Snapshot{}, ErrClosed
	}
	m.evictExpiredLocked()
	if m.queuedCount >= m.cfg.QueueDepth {
		return Snapshot{}, fmt.Errorf("%w: %d jobs waiting (limit %d)", ErrQueueFull, m.queuedCount, m.cfg.QueueDepth)
	}
	tq := m.tenants[opts.Tenant]
	if m.cfg.MaxPerTenant > 0 && tq != nil && tq.active >= m.cfg.MaxPerTenant {
		return Snapshot{}, fmt.Errorf("%w: tenant %q has %d jobs admitted (limit %d)",
			ErrTenantQuota, opts.Tenant, tq.active, m.cfg.MaxPerTenant)
	}
	m.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:      fmt.Sprintf("j%d", m.seq),
		tenant:  opts.Tenant,
		meta:    opts.Meta,
		run:     run,
		timeout: opts.Timeout,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   Queued,
		created: m.cfg.Now(),
	}
	m.jobs[j.id] = j
	if tq == nil {
		tq = &tenantQueue{tenant: opts.Tenant}
		m.tenants[opts.Tenant] = tq
	}
	j.tq = tq
	if len(tq.queue) == 0 {
		m.rotation = append(m.rotation, tq)
	}
	tq.queue = append(tq.queue, j)
	tq.active++
	m.queuedCount++
	m.cond.Signal()
	return m.snapshotLocked(j), nil
}

// Complete records a job that is already succeeded without queueing any work:
// the job is born in the Succeeded state carrying the given result, with all
// three lifecycle timestamps set to now, and is retained (and TTL-evicted)
// exactly like a job that ran. The HTTP service uses it when a result cache
// hit satisfies an asynchronous submission — the client still gets a job id
// to poll, but no worker slot or queue capacity is consumed.
func (m *Manager) Complete(result any, opts Options) (Snapshot, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Snapshot{}, ErrClosed
	}
	m.evictExpiredLocked()
	m.seq++
	now := m.cfg.Now()
	j := &job{
		id:       fmt.Sprintf("j%d", m.seq),
		tenant:   opts.Tenant,
		meta:     opts.Meta,
		done:     make(chan struct{}),
		state:    Succeeded,
		created:  now,
		started:  now,
		finished: now,
		result:   result,
	}
	m.jobs[j.id] = j
	m.finished = append(m.finished, j)
	close(j.done)
	snap := m.snapshotLocked(j)
	m.mu.Unlock()
	if obs := m.cfg.Observer; obs != nil {
		obs.JobFinished(j.tenant, Succeeded)
	}
	return snap, nil
}

// dequeueLocked pops the next job in round-robin order: the head of the
// rotation tenant's queue. A tenant whose queue empties leaves the rotation
// without advancing the cursor (the next tenant slides into its slot), so no
// tenant is skipped. Returns nil when nothing is queued. The manager mutex
// must be held.
func (m *Manager) dequeueLocked() *job {
	if m.queuedCount == 0 {
		return nil
	}
	if m.rrNext >= len(m.rotation) {
		m.rrNext = 0
	}
	tq := m.rotation[m.rrNext]
	j := tq.queue[0]
	tq.queue = tq.queue[1:]
	if len(tq.queue) == 0 {
		m.rotation = append(m.rotation[:m.rrNext], m.rotation[m.rrNext+1:]...)
	} else {
		m.rrNext++
	}
	m.queuedCount--
	return j
}

// releaseTenantLocked drops one admitted job from its tenant's accounting,
// retiring the tenant record once its last job leaves so a flood of distinct
// tenant names cannot grow the map unboundedly. The shared anonymous record
// stays resident — it is a single struct, and deleting it would make every
// unauthenticated drain/refill cycle reallocate it. The manager mutex must be
// held.
func (m *Manager) releaseTenantLocked(j *job) {
	j.tq.active--
	if j.tq.active == 0 && j.tq.tenant != "" {
		delete(m.tenants, j.tq.tenant)
	}
}

// removeQueuedLocked unlinks a queued job from its tenant's queue (for
// Cancel), maintaining the rotation and cursor. The manager mutex must be
// held.
func (m *Manager) removeQueuedLocked(j *job) {
	tq := j.tq
	for i, cand := range tq.queue {
		if cand == j {
			tq.queue = append(tq.queue[:i], tq.queue[i+1:]...)
			break
		}
	}
	if len(tq.queue) == 0 {
		for i, r := range m.rotation {
			if r == tq {
				m.rotation = append(m.rotation[:i], m.rotation[i+1:]...)
				if i < m.rrNext {
					m.rrNext--
				}
				break
			}
		}
	}
	m.queuedCount--
	m.releaseTenantLocked(j)
}

// worker pulls jobs in per-tenant round-robin order and runs them until
// Close.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for m.queuedCount == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.queuedCount == 0 && m.closed {
			m.mu.Unlock()
			return
		}
		j := m.dequeueLocked()
		j.state = Running
		j.started = m.cfg.Now()
		wait := j.started.Sub(j.created)
		ctx, timeoutCancel := j.ctx, context.CancelFunc(func() {})
		if j.timeout > 0 {
			ctx, timeoutCancel = context.WithTimeout(j.ctx, j.timeout)
		}
		m.mu.Unlock()

		obs := m.cfg.Observer
		if obs != nil {
			obs.JobStarted(j.tenant, wait)
		}

		result, err := runRecovered(j, ctx)
		timeoutCancel()

		m.mu.Lock()
		j.finished = m.cfg.Now()
		switch {
		case err == nil:
			j.state = Succeeded
			j.result = result
		case j.canceling && errors.Is(err, context.Canceled):
			j.state = Canceled
			j.err = err
		default:
			j.state = Failed
			j.err = err
		}
		terminal := j.state
		m.releaseTenantLocked(j)
		m.finished = append(m.finished, j)
		close(j.done)
		m.mu.Unlock()

		if obs != nil {
			obs.JobFinished(j.tenant, terminal)
		}
	}
}

// runRecovered executes one job's Runner, converting a panic into a failed
// job. Requests used to run on net/http handler goroutines, where a panicking
// algorithm killed only its own connection; a worker goroutine has no such
// net, and one poisonous request must not take the whole service down.
func runRecovered(j *job, ctx context.Context) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			result = nil
			err = fmt.Errorf("jobs: runner panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return j.run(ctx, j.report)
}

// report is the progress sink handed to every Runner. Total tracks the last
// event; done only ever advances, so a racy reporter cannot make a snapshot
// move backwards.
func (j *job) report(done, total int) {
	j.progressTotal.Store(int64(total))
	for {
		cur := j.progressDone.Load()
		if int64(done) <= cur || j.progressDone.CompareAndSwap(cur, int64(done)) {
			return
		}
	}
}

// Get returns the snapshot of one job.
func (m *Manager) Get(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictExpiredLocked()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return m.snapshotLocked(j), nil
}

// List returns a snapshot of every retained job in submission order.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictExpiredLocked()
	out := make([]Snapshot, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, m.snapshotLocked(j))
	}
	// Submission order: ids are a counter, so creation time break ties by id
	// length then lexicographic ("j2" < "j10").
	sortSnapshots(out)
	return out
}

// Cancel requests cancellation of a queued or running job. A queued job
// becomes canceled immediately and never runs; a running job has its context
// canceled and reaches the canceled state when its Runner returns. Canceling
// a finished job fails with ErrFinished.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	m.evictExpiredLocked()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	switch j.state {
	case Queued:
		m.removeQueuedLocked(j)
		j.cancel()
		j.state = Canceled
		j.err = context.Canceled
		j.finished = m.cfg.Now()
		m.finished = append(m.finished, j)
		close(j.done)
		m.mu.Unlock()
		if obs := m.cfg.Observer; obs != nil {
			obs.JobFinished(j.tenant, Canceled)
		}
		return nil
	case Running:
		j.canceling = true
		j.cancel()
		m.mu.Unlock()
		return nil
	default:
		state := j.state
		m.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrFinished, id, state)
	}
}

// Wait blocks until the job reaches a terminal state (returning its final
// snapshot) or ctx is done (returning ctx's error). It does not cancel the
// job on ctx expiry — that is the caller's decision.
func (m *Manager) Wait(ctx context.Context, id string) (Snapshot, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	select {
	case <-j.done:
		// Snapshot the job directly rather than via Get: a terminal job is
		// immutable, and Get could already have TTL-evicted it.
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.snapshotLocked(j), nil
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
}

// Forget drops a terminal job immediately instead of waiting for the TTL.
// Callers that consumed the result synchronously (the service's
// submit-and-wait path) use it so waited-for responses do not pin memory for
// the retention window. Forgetting a job that is still queued or running
// fails — Cancel is the way to stop live work.
func (m *Manager) Forget(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if !j.state.Terminal() {
		return fmt.Errorf("jobs: job %s is %s, not terminal", id, j.state)
	}
	delete(m.jobs, id)
	for i, f := range m.finished {
		if f == j {
			m.finished = append(m.finished[:i], m.finished[i+1:]...)
			break
		}
	}
	return nil
}

// Counts reports queue occupancy: jobs waiting, running, and retained in a
// terminal state.
func (m *Manager) Counts() (queued, running, finished int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictExpiredLocked()
	for _, j := range m.jobs {
		switch j.state {
		case Queued:
			queued++
		case Running:
			running++
		default:
			finished++
		}
	}
	return
}

// Close stops the manager: queued jobs are canceled, running jobs have their
// contexts canceled, and Close returns once every worker has drained. Further
// submissions fail with ErrClosed.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	var drained []*job
	for j := m.dequeueLocked(); j != nil; j = m.dequeueLocked() {
		j.cancel()
		j.state = Canceled
		j.err = context.Canceled
		j.finished = m.cfg.Now()
		m.releaseTenantLocked(j)
		m.finished = append(m.finished, j)
		close(j.done)
		drained = append(drained, j)
	}
	for _, j := range m.jobs {
		if j.state == Running {
			j.canceling = true
			j.cancel()
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	if obs := m.cfg.Observer; obs != nil {
		for _, j := range drained {
			obs.JobFinished(j.tenant, Canceled)
		}
	}
	m.wg.Wait()
}

// snapshotLocked builds a Snapshot; the manager mutex must be held.
func (m *Manager) snapshotLocked(j *job) Snapshot {
	s := Snapshot{
		ID:       j.id,
		Tenant:   j.tenant,
		State:    j.state,
		Meta:     j.meta,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
		Result:   j.result,
		Err:      j.err,
		Progress: Progress{
			Done:  int(j.progressDone.Load()),
			Total: int(j.progressTotal.Load()),
		},
	}
	if j.state == Queued {
		s.QueuePos = m.queuePosLocked(j)
	}
	return s
}

// queuePosLocked computes a queued job's 1-based dispatch position by
// simulating round-robin draining from the current cursor. O(queued jobs),
// bounded by QueueDepth. The manager mutex must be held.
func (m *Manager) queuePosLocked(target *job) int {
	// One active tenant — the whole unauthenticated service, and any moment
	// the other tenants' queues have drained — dispatches in plain FIFO
	// order, so the position is the index in that queue. This keeps the
	// hot submit-snapshot path allocation-free.
	if len(m.rotation) == 1 {
		for i, j := range m.rotation[0].queue {
			if j == target {
				return i + 1
			}
		}
		return 0
	}
	rot := append([]*tenantQueue(nil), m.rotation...)
	next := make(map[*tenantQueue]int, len(rot))
	cur := m.rrNext
	pos := 0
	for len(rot) > 0 {
		if cur >= len(rot) {
			cur = 0
		}
		tq := rot[cur]
		j := tq.queue[next[tq]]
		pos++
		if j == target {
			return pos
		}
		next[tq]++
		if next[tq] >= len(tq.queue) {
			rot = append(rot[:cur], rot[cur+1:]...)
		} else {
			cur++
		}
	}
	return 0
}

// evictExpiredLocked drops finished jobs whose TTL has passed, and the
// oldest ones beyond the MaxFinished cap; the manager mutex must be held.
// The finished list is in finish order, so TTL eviction stops at the first
// unexpired entry.
func (m *Manager) evictExpiredLocked() {
	cutoff := m.cfg.Now().Add(-m.cfg.TTL)
	for len(m.finished) > 0 &&
		(len(m.finished) > m.cfg.MaxFinished || !m.finished[0].finished.After(cutoff)) {
		delete(m.jobs, m.finished[0].id)
		m.finished = m.finished[1:]
	}
}

// sortSnapshots orders by job id's numeric suffix (submission order): ids
// compare by length first ("j9" < "j10"), which is exactly the counter
// order.
func sortSnapshots(s []Snapshot) {
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i].ID, s[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
}
