// Package obs is the observability core of the kifmm service: a small
// concurrency-safe metrics registry rendered in the Prometheus text
// exposition format, the module's one hierarchical span type with a
// bounded in-memory ring (span.go), and the per-rank timelines of a
// distributed run built from that span and mpi's message ledger
// (timeline.go).
//
// The registry deliberately implements only what the service needs —
// counters, gauges, fixed-bucket histograms, their labeled variants and
// callback-backed (Func) forms — so the server stays scrapeable by a
// real fleet monitor without importing a client library. Metric and
// label names are validated at registration (lowercase snake_case,
// enforced by MustValidName) and duplicate registration panics, which
// keeps the catalog honest: every family renders exactly once.
//
// All instruments are safe for concurrent use; WritePrometheus may run
// concurrently with any number of writers.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// nameRE is the accepted metric/label name shape: lowercase snake_case.
// Deliberately stricter than Prometheus (no capitals, no colons, no
// leading underscore) so the catalog stays uniform.
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*[a-z0-9]$`)

// MustValidName panics unless name is lowercase snake_case
// ([a-z][a-z0-9_]*[a-z0-9], no double underscores).
func MustValidName(name string) {
	if !nameRE.MatchString(name) || strings.Contains(name, "__") {
		panic(fmt.Sprintf("obs: metric name %q is not lowercase snake_case", name))
	}
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. The zero value is not usable; use NewRegistry.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*family
	names  []string // registration order; rendering sorts
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one metric family: a name, type and help string plus its
// series (one per label-value combination; exactly one for unlabeled
// instruments).
type family struct {
	name, help, typ string
	labels          []string
	buckets         []float64      // histograms only
	fn              func() float64 // CounterFunc / GaugeFunc only

	mu     sync.Mutex
	keys   []string // series creation order; rendering sorts
	series map[string]*series
}

// series is one labeled instrument of a family.
type series struct {
	vals []string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// add registers a family, panicking on invalid or duplicate names.
func (r *Registry) add(name, help, typ string, labels []string, buckets []float64, fn func() float64) *family {
	MustValidName(name)
	for _, l := range labels {
		MustValidName(l)
	}
	if typ == "histogram" {
		if len(buckets) == 0 {
			panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
		}
		if !sort.Float64sAreSorted(buckets) {
			panic(fmt.Sprintf("obs: histogram %q buckets are not sorted", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels: labels, buckets: buckets, fn: fn,
		series: make(map[string]*series),
	}
	r.byName[name] = f
	r.names = append(r.names, name)
	return f
}

// seriesFor returns (creating if needed) the series for the given label
// values.
func (f *family) seriesFor(vals []string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q got %d label values, want %d", f.name, len(vals), len(f.labels)))
	}
	key := strings.Join(vals, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{vals: append([]string(nil), vals...)}
		switch f.typ {
		case "counter":
			s.c = &Counter{}
		case "gauge":
			s.g = &Gauge{}
		case "histogram":
			s.h = newHistogram(f.buckets)
		}
		f.series[key] = s
		f.keys = append(f.keys, key)
	}
	return s
}

// Counter registers and returns a monotonically increasing counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.add(name, help, "counter", nil, nil, nil).seriesFor(nil).c
}

// CounterVec registers a labeled counter family; With materializes the
// series per label-value combination.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.add(name, help, "counter", labels, nil, nil)}
}

// CounterFunc registers a counter whose value is read from fn at every
// render — for monotone totals owned elsewhere (e.g. the elastic pool's
// granted-lanes count), so there is a single source of truth.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(name, help, "counter", nil, nil, fn)
}

// Gauge registers and returns a gauge (a float that goes up and down).
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.add(name, help, "gauge", nil, nil, nil).seriesFor(nil).g
}

// GaugeVec registers a labeled gauge family; With materializes the
// series per label-value combination (e.g. a build-info gauge whose
// labels carry the version strings).
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.add(name, help, "gauge", labels, nil, nil)}
}

// GaugeFunc registers a gauge whose value is read from fn at every
// render — for live state (cache sizes, lanes in use) that already has
// an owner.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(name, help, "gauge", nil, nil, fn)
}

// Histogram registers and returns a histogram with the given bucket
// upper bounds (sorted, +Inf implied).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.add(name, help, "histogram", nil, buckets, nil).seriesFor(nil).h
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.add(name, help, "histogram", labels, buckets, nil)}
}

// Counter is a monotonically increasing integer counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n is ignored (counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by v (which may be negative).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (cumulative `le`
// buckets in the exposition, per-bucket atomics internally).
type Histogram struct {
	upper  []float64
	counts []atomic.Int64 // len(upper)+1; last is the +Inf overflow
	total  atomic.Int64
	sum    Gauge // CAS float accumulator
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{
		upper:  append([]float64(nil), buckets...),
		counts: make([]atomic.Int64, len(buckets)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.upper, v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first
// use). The number of values must match the registered label names.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.seriesFor(labelValues).c
}

// Snapshot returns current values keyed by comma-joined label values.
func (v *CounterVec) Snapshot() map[string]int64 {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	out := make(map[string]int64, len(v.f.series))
	for _, s := range v.f.series {
		out[strings.Join(s.vals, ",")] = s.c.Value()
	}
	return out
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values (created on first
// use). The number of values must match the registered label names.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.seriesFor(labelValues).g
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values (created on
// first use).
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.seriesFor(labelValues).h
}

// FamilyInfo describes one registered metric family — the unit of the
// README metrics catalog and of the name-lint test.
type FamilyInfo struct {
	Name   string
	Type   string
	Help   string
	Labels []string
}

// Families lists every registered family, sorted by name. It is a test
// hook: the service's tests check every family's name and help text
// against the README catalog with it.
func (r *Registry) Families() []FamilyInfo {
	r.mu.Lock()
	out := make([]FamilyInfo, 0, len(r.names))
	for _, n := range r.names {
		f := r.byName[n]
		out = append(out, FamilyInfo{Name: f.name, Type: f.typ, Help: f.help, Labels: f.labels})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot flattens every sample to "name" or "name{k=\"v\"}" keys
// (histograms contribute _count and _sum samples), for code that reads
// the registry in process. Keys match the exposition format lines.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.sortedFamilies() {
		f.snapshot(out)
	}
	return out
}

func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.names))
	for _, n := range r.names {
		fams = append(fams, r.byName[n])
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) snapshot(out map[string]float64) {
	if f.fn != nil {
		out[f.name] = f.fn()
		return
	}
	for _, s := range f.sortedSeries() {
		lbl := labelString(f.labels, s.vals)
		switch f.typ {
		case "counter":
			out[f.name+lbl] = float64(s.c.Value())
		case "gauge":
			out[f.name+lbl] = s.g.Value()
		case "histogram":
			out[f.name+"_count"+lbl] = float64(s.h.Count())
			out[f.name+"_sum"+lbl] = s.h.Sum()
		}
	}
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4), families and series sorted by
// name for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, f := range r.sortedFamilies() {
		f.write(w)
	}
}

func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	ss := make([]*series, 0, len(f.keys))
	keys := append([]string(nil), f.keys...)
	sort.Strings(keys)
	for _, k := range keys {
		ss = append(ss, f.series[k])
	}
	f.mu.Unlock()
	return ss
}

func (f *family) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	if f.fn != nil {
		fmt.Fprintf(w, "%s %s\n", f.name, fmtVal(f.fn()))
		return
	}
	for _, s := range f.sortedSeries() {
		switch f.typ {
		case "counter":
			fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, s.vals), s.c.Value())
		case "gauge":
			fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.vals), fmtVal(s.g.Value()))
		case "histogram":
			// Cumulative le buckets; counts are read low-to-high after the
			// totals, so concurrent observations can only make a rendered
			// bucket undercount, never break monotonicity requirements of
			// a single scrape in a meaningful way.
			var cum int64
			for i, ub := range s.h.upper {
				cum += s.h.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelStringLe(f.labels, s.vals, fmtVal(ub)), cum)
			}
			cum += s.h.counts[len(s.h.upper)].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelStringLe(f.labels, s.vals, "+Inf"), cum)
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, s.vals), fmtVal(s.h.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, s.vals), s.h.Count())
		}
	}
}

// labelString renders {k1="v1",k2="v2"}; empty for no labels.
func labelString(keys, vals []string) string {
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelStringLe renders the histogram bucket labels with the trailing
// le bound.
func labelStringLe(keys, vals []string, le string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteString(`",`)
	}
	b.WriteString(`le="`)
	b.WriteString(le)
	b.WriteString(`"}`)
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func fmtVal(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ExpBuckets returns n bucket bounds growing geometrically from start
// by factor — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}
