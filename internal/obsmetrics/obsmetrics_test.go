package obsmetrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

func TestCounterAndGaugeRendering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "Events seen.")
	g := r.Gauge("test_depth", "Current depth.")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters only go up
	g.Set(3)
	g.Inc()
	g.Dec()
	g.Add(0.5)
	out := render(r)
	for _, want := range []string{
		"# HELP test_events_total Events seen.\n",
		"# TYPE test_events_total counter\n",
		"test_events_total 3\n",
		"# TYPE test_depth gauge\n",
		"test_depth 3.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if c.Value() != 3 {
		t.Errorf("counter value = %d, want 3", c.Value())
	}
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_requests_total", "Requests by route and status.", "route", "status")
	v.With("GET /healthz", "200").Add(2)
	v.With("POST /v1/anonymize", "200").Inc()
	v.With("GET /healthz", "200").Inc() // same series
	out := render(r)
	if !strings.Contains(out, `test_requests_total{route="GET /healthz",status="200"} 3`+"\n") {
		t.Errorf("vec series missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, `test_requests_total{route="POST /v1/anonymize",status="200"} 1`+"\n") {
		t.Errorf("second series missing:\n%s", out)
	}
	// One HELP/TYPE pair for the whole family.
	if got := strings.Count(out, "# TYPE test_requests_total counter"); got != 1 {
		t.Errorf("TYPE lines = %d, want 1", got)
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_esc_total", "Escaping.", "name")
	v.With("a\"b\\c\nd").Inc()
	out := render(r)
	want := `test_esc_total{name="a\"b\\c\nd"} 1` + "\n"
	if !strings.Contains(out, want) {
		t.Errorf("escaped series %q missing:\n%s", want, out)
	}
}

func TestHistogramContract(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := render(r)
	for _, want := range []string{
		`test_seconds_bucket{le="0.1"} 1` + "\n",
		`test_seconds_bucket{le="1"} 3` + "\n",
		`test_seconds_bucket{le="10"} 4` + "\n",
		`test_seconds_bucket{le="+Inf"} 5` + "\n",
		"test_seconds_sum 56.05\n",
		"test_seconds_count 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 56.05 {
		t.Errorf("Sum = %v, want 56.05", h.Sum())
	}
}

func TestHistogramVecBucketLabelsMerge(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("test_run_seconds", "Run latency by algorithm.", []float64{1}, "algorithm")
	v.With("mondrian").Observe(0.5)
	out := render(r)
	for _, want := range []string{
		`test_run_seconds_bucket{algorithm="mondrian",le="1"} 1` + "\n",
		`test_run_seconds_bucket{algorithm="mondrian",le="+Inf"} 1` + "\n",
		`test_run_seconds_sum{algorithm="mondrian"} 0.5` + "\n",
		`test_run_seconds_count{algorithm="mondrian"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("vec histogram missing %q:\n%s", want, out)
		}
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	depth := 7.0
	r.FuncGroup([]FuncFamily{{Name: "test_queue_depth", Help: "Queue depth."}},
		func() []float64 { return []float64{depth} })
	r.FuncGroup([]FuncFamily{{Name: "test_hits_total", Help: "Hits.", Counter: true}},
		func() []float64 { return []float64{41} })
	depth = 9
	out := render(r)
	if !strings.Contains(out, "# TYPE test_queue_depth gauge\ntest_queue_depth 9\n") {
		t.Errorf("gauge func not collected at render:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE test_hits_total counter\ntest_hits_total 41\n") {
		t.Errorf("counter func missing:\n%s", out)
	}
}

// TestFuncGroup checks that a group's families render in name order among
// other families, each from one collect call per render.
func TestFuncGroup(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.FuncGroup([]FuncFamily{
		{Name: "test_b_total", Help: "B.", Counter: true},
		{Name: "test_a", Help: "A."},
	}, func() []float64 {
		calls++
		return []float64{3, 0.5}
	})
	// A family of another source sorts between the group's two.
	r.Gauge("test_ab", "Between.")
	want := "# HELP test_a A.\n# TYPE test_a gauge\ntest_a 0.5\n" +
		"# HELP test_ab Between.\n# TYPE test_ab gauge\ntest_ab 0\n" +
		"# HELP test_b_total B.\n# TYPE test_b_total counter\ntest_b_total 3\n"
	if got := render(r); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if calls != 1 {
		t.Fatalf("collect ran %d times in one render, want 1", calls)
	}
	render(r)
	if calls != 2 {
		t.Fatalf("collect ran %d times in two renders, want 2", calls)
	}
}

func TestFamiliesSortedByName(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "Last.")
	r.Counter("aa_total", "First.")
	out := render(r)
	if strings.Index(out, "aa_total") > strings.Index(out, "zz_total") {
		t.Errorf("families not sorted:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "One.")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "Two.")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9lead", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "bad")
		}()
	}
}

// TestConcurrentObservationsAndRender hammers every instrument kind from many
// goroutines while rendering in a loop; run under -race this is the package's
// concurrency guard, and the final render must account for every event.
func TestConcurrentObservationsAndRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_events_total", "Events.")
	g := r.Gauge("hammer_depth", "Depth.")
	h := r.Histogram("hammer_seconds", "Latency.", []float64{0.5})
	v := r.CounterVec("hammer_by_label_total", "By label.", "l")
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				render(r)
			}
		}
	}()
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(k%2) * 0.9)
				v.With(string(rune('a' + i%3))).Inc()
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	if c.Value() != goroutines*perG {
		t.Errorf("counter = %d, want %d", c.Value(), goroutines*perG)
	}
	if g.Value() != goroutines*perG {
		t.Errorf("gauge = %v, want %d", g.Value(), goroutines*perG)
	}
	if h.Count() != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("handler_total", "Handler.").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text format 0.0.4", ct)
	}
	if !strings.Contains(rec.Body.String(), "handler_total 1\n") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}
