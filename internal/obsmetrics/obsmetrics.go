// Package obsmetrics is the service's dependency-free metrics layer: typed
// counters, gauges and histograms registered in a Registry that renders the
// Prometheus text exposition format 0.0.4 by hand, so the repository stays
// stdlib-only while `GET /metrics` is scrapeable by any Prometheus-compatible
// collector.
//
// Every instrument is safe for concurrent use: counters and gauges are single
// atomics, histograms keep one atomic per bucket plus a CAS-folded float sum,
// and observation paths never take the registry lock. Rendering walks the
// registry under its mutex but reads the instrument values atomically, so a
// scrape racing a burst of observations sees a consistent-enough snapshot
// (each sample individually exact; cross-metric skew is inherent to
// Prometheus scraping).
//
// Numbers that already live behind their owner's lock are function-backed
// (FuncGroup): collected from the owner at render time, once per render and
// source, so the exposition keeps no second copy of them.
//
// The Value accessors (Counter.Value, Gauge.Value, Histogram.Count) exist
// so other read paths — the service's /healthz — can report the same
// numbers the exposition renders, from the same registry, and therefore can
// never drift from it.
package obsmetrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default histogram bucket upper bounds, in seconds —
// Prometheus's canonical latency spread.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// metricType is the TYPE line value of one family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Registry holds metric families and renders them. Create one with
// NewRegistry; registration typically happens once at service construction,
// observation on every request.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order; rendering sorts by name
}

// family is one named metric with HELP/TYPE and its label schema. Scalar
// metrics are the single series under the empty label key; vec metrics hold
// one series per label-value combination.
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string

	mu     sync.Mutex
	series map[string]renderable // key = joined escaped label values
}

// renderable is the rendering contract of one series; sc is the state of
// the render it belongs to.
type renderable interface {
	renderInto(w io.Writer, name, labelPart string, sc *scrape)
}

// scrape is the state of one render: the result of each FuncGroup's
// collect, taken when the first of its families renders.
type scrape struct {
	groups map[*funcGroup][]float64
}

func (sc *scrape) values(g *funcGroup) []float64 {
	v, ok := sc.groups[g]
	if !ok {
		v = g.collect()
		sc.groups[g] = v
	}
	return v
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a family, panicking on a duplicate or invalid name —
// registration happens at construction time, where a bad metric is a
// programming error, not a runtime condition.
func (r *Registry) register(name, help string, typ metricType, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obsmetrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obsmetrics: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic(fmt.Sprintf("obsmetrics: metric %q registered twice", name))
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, series: make(map[string]renderable)}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// validName checks the Prometheus metric/label name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ---- counters ----

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative increments are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) renderInto(w io.Writer, name, labelPart string, _ *scrape) {
	fmt.Fprintf(w, "%s%s %d\n", name, labelPart, c.Value())
}

// Counter registers a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, typeCounter, nil)
	c := &Counter{}
	f.series[""] = c
	return c
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	f *family
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obsmetrics: CounterVec needs at least one label")
	}
	return &CounterVec{f: r.register(name, help, typeCounter, labels)}
}

// With returns the counter for one label-value combination, creating it on
// first use. The number of values must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	s := v.f.child(values, func() renderable { return &Counter{} })
	return s.(*Counter)
}

// ---- gauges ----

// Gauge is a value that can go up and down. It stores float64 bits so both
// integer occupancy gauges and fractional values render exactly.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Inc adds one. Add adds d (CAS loop; gauges are low-frequency).
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) renderInto(w io.Writer, name, labelPart string, _ *scrape) {
	fmt.Fprintf(w, "%s%s %s\n", name, labelPart, formatValue(g.Value()))
}

// Gauge registers a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, typeGauge, nil)
	g := &Gauge{}
	f.series[""] = g
	return g
}

// ---- function-backed metrics ----

// FuncFamily names one family of a FuncGroup.
type FuncFamily struct {
	Name, Help string
	// Counter makes the family a counter (its values must be monotone);
	// otherwise it is a gauge.
	Counter bool
}

// funcGroup is the shared source of a FuncGroup's families.
type funcGroup struct {
	collect func() []float64
}

// groupMetric is family i of a FuncGroup.
type groupMetric struct {
	g *funcGroup
	i int
}

func (m *groupMetric) renderInto(w io.Writer, name, labelPart string, sc *scrape) {
	fmt.Fprintf(w, "%s%s %s\n", name, labelPart, formatValue(sc.values(m.g)[m.i]))
}

// FuncGroup registers function-backed families that read one source, such
// as occupancy numbers or counters kept behind the source's own lock:
// collect returns one value per family, in the order of fams, and each
// render calls it once, so the source is locked once per scrape and its
// families show one moment. Counter families must read monotone values.
func (r *Registry) FuncGroup(fams []FuncFamily, collect func() []float64) {
	g := &funcGroup{collect: collect}
	for i, ff := range fams {
		typ := typeGauge
		if ff.Counter {
			typ = typeCounter
		}
		r.register(ff.Name, ff.Help, typ, nil).series[""] = &groupMetric{g: g, i: i}
	}
}

// ---- histograms ----

// Histogram counts observations into cumulative buckets and tracks their sum,
// the Prometheus histogram contract: every bucket le="x" counts observations
// <= x, the +Inf bucket equals _count, and _sum is the total of all observed
// values.
type Histogram struct {
	upper  []float64 // sorted upper bounds, excluding +Inf
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-folded
}

func newHistogram(buckets []float64) *Histogram {
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	return &Histogram{upper: upper, counts: make([]atomic.Int64, len(upper))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) renderInto(w io.Writer, name, labelPart string, _ *scrape) {
	// Cumulative bucket counts; each le label extends the series' labels.
	cum := int64(0)
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labelPart, formatValue(ub)), cum)
	}
	// The +Inf bucket is the total count by definition; reading count after
	// the buckets keeps it >= the cumulative sum under concurrent observers.
	total := h.count.Load()
	if total < cum {
		total = cum
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labelPart, "+Inf"), total)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelPart, formatValue(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelPart, total)
}

// bucketLabels merges a series' label part with the le bucket label.
func bucketLabels(labelPart, le string) string {
	if labelPart == "" {
		return `{le="` + le + `"}`
	}
	return strings.TrimSuffix(labelPart, "}") + `,le="` + le + `"}`
}

// Histogram registers a scalar histogram over the given bucket upper bounds
// (DefBuckets when nil).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(name, help, typeHistogram, nil)
	h := newHistogram(buckets)
	f.series[""] = h
	return h
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// HistogramVec registers a labeled histogram family over the given bucket
// upper bounds (DefBuckets when nil).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("obsmetrics: HistogramVec needs at least one label")
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, typeHistogram, labels), buckets: append([]float64(nil), buckets...)}
}

// With returns the histogram for one label-value combination, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	s := v.f.child(values, func() renderable { return newHistogram(v.buckets) })
	return s.(*Histogram)
}

// child returns the series under the given label values, creating it with
// mk on first use.
func (f *family) child(values []string, mk func() renderable) renderable {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obsmetrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(f.labels, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = mk()
		f.series[key] = s
	}
	return s
}

// seriesKey renders the {label="value",...} part of a sample line; it doubles
// as the series map key, so equal label sets share one series.
func seriesKey(labels, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes backslash, double quote and newline per the text
// format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a float sample value: integral values print without an
// exponent or trailing zeros, everything else in Go's shortest round-trip
// form, which the Prometheus parser accepts.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders every registered family in the text exposition format
// 0.0.4: families sorted by name, each with its HELP and TYPE line followed
// by its series sorted by label key.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	sc := &scrape{groups: make(map[*funcGroup][]float64)}
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		series := make([]renderable, len(keys))
		sort.Strings(keys)
		for i, k := range keys {
			series[i] = f.series[k]
		}
		f.mu.Unlock()
		for i, k := range keys {
			series[i].renderInto(w, f.name, k, sc)
		}
	}
}

// Handler returns an http.Handler serving the exposition — the body of the
// service's GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
