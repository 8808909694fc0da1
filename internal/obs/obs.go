// Package obs is the dependency-free observability plane underneath
// the D-Watch daemons: a small metrics registry (counters, gauges,
// histograms, with optional label dimensions), a Prometheus
// text-format exposition writer, and a lightweight span/event recorder
// the pipeline stages use to time ingest → spectrum → assemble → fuse.
//
// Design goals, in order:
//
//   - Zero dependencies: the whole repo is stdlib-only, so this is a
//     minimal re-derivation of the client_golang surface the daemons
//     actually need, not a port of it.
//   - Nil-safety: every constructor and metric method is safe on a nil
//     receiver and degrades to a no-op. Library code can thread a
//     `*Registry` through unconditionally ("instrument if attached")
//     without branching at every increment site.
//   - Hot-path friendliness: counters and gauges are single atomics;
//     histograms reuse stats.Histogram (one short lock, no per-sample
//     allocation). Labeled children can be resolved once up front and
//     cached by the caller, so steady-state increments never touch the
//     registry lock.
//
// Metric and label names follow the Prometheus conventions
// ([a-zA-Z_:][a-zA-Z0-9_:]* and [a-zA-Z_][a-zA-Z0-9_]*); violations
// panic at registration, because metric names are static program data.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dwatch/internal/stats"
)

// Kind discriminates the metric families a Registry can hold.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing uint64. The zero value is
// usable; a nil *Counter is a no-op.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a float64 that may go up and down. The zero value is
// usable; a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by d (negative d decrements).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram (a thin wrapper over
// stats.Histogram so the pipeline's latency digests and the exposition
// writer share one implementation). A nil *Histogram is a no-op.
type Histogram struct {
	h *stats.Histogram
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.h.Observe(v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Summary digests the histogram (zero-valued on a nil receiver).
func (h *Histogram) Summary() stats.HistogramSummary {
	if h == nil {
		return stats.HistogramSummary{}
	}
	return h.h.Summary()
}

// Buckets exports the raw bucket state (empty on a nil receiver).
func (h *Histogram) Buckets() stats.Buckets {
	if h == nil {
		return stats.Buckets{}
	}
	return h.h.Buckets()
}

// gfnList is the set of collection-time value funcs attached to one
// gauge child, each held by pointer so it can be detached again. Held
// behind an atomic pointer so registration (rare) never races
// collection (frequent) without a per-sample lock.
type gfnList []*func() float64

// child is one (label values → metric) instance inside a family.
type child struct {
	values []string
	c      *Counter
	g      *Gauge
	gfns   atomic.Pointer[gfnList]
	h      *Histogram
}

// addGaugeFunc attaches fn to the child's collection-time funcs and
// returns the handle removeGaugeFunc detaches it by.
func (ch *child) addGaugeFunc(fn func() float64) *func() float64 {
	h := &fn
	for {
		old := ch.gfns.Load()
		var next gfnList
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, h)
		if ch.gfns.CompareAndSwap(old, &next) {
			return h
		}
	}
}

// removeGaugeFunc detaches the func behind h; a no-op once detached.
func (ch *child) removeGaugeFunc(h *func() float64) {
	for {
		old := ch.gfns.Load()
		if old == nil {
			return
		}
		next := make(gfnList, 0, len(*old))
		for _, f := range *old {
			if f != h {
				next = append(next, f)
			}
		}
		if len(next) == len(*old) || ch.gfns.CompareAndSwap(old, &next) {
			return
		}
	}
}

// gaugeValue reads the child's current value: the sum of every
// attached gauge func, or the stored gauge when none are attached.
func (ch *child) gaugeValue() float64 {
	fns := ch.gfns.Load()
	if fns == nil || len(*fns) == 0 {
		return ch.g.Value()
	}
	var v float64
	for _, fn := range *fns {
		v += (*fn)()
	}
	return v
}

// family is one named metric family: a kind, a help string, a label
// schema, and the children keyed by their label values.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram bucket upper edges

	mu       sync.Mutex
	children map[string]*child
	order    []string
}

// Registry holds metric families in registration order. A nil
// *Registry hands out nil (no-op) metrics from every constructor, so
// instrumented code needs no "is observability on?" branches.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabel(s string) bool {
	return validName(s) && !strings.Contains(s, ":")
}

// family registers (or finds) a family, enforcing that re-registration
// uses an identical schema. Metric names and schemas are static
// program data, so mismatches panic rather than error.
func (r *Registry) family(name, help string, kind Kind, bounds []float64, labels []string) *family {
	if r == nil {
		return nil
	}
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabel(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.byName[name]; f != nil {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: %q re-registered as %v, was %v", name, kind, f.kind))
		}
		if len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: %q re-registered with %d labels, was %d", name, len(labels), len(f.labels)))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: %q re-registered with label %q, was %q", name, labels[i], f.labels[i]))
			}
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: map[string]*child{},
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// childFor finds or creates the child for the given label values.
func (f *family) childFor(values []string) *child {
	if f == nil {
		return nil
	}
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := f.children[key]
	if ch == nil {
		ch = &child{values: append([]string(nil), values...)}
		switch f.kind {
		case KindCounter:
			ch.c = &Counter{}
		case KindGauge:
			ch.g = &Gauge{}
		case KindHistogram:
			ch.h = &Histogram{h: stats.NewHistogram(f.bounds)}
		}
		f.children[key] = ch
		f.order = append(f.order, key)
	}
	return ch
}

// remove drops the child for the given label values; the series
// disappears from collection and a later childFor for the same values
// starts a fresh child (zeroed counters, no attached gauge funcs).
// Removing an absent child is a no-op.
func (f *family) remove(values []string) {
	if f == nil {
		return
	}
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.children[key]; !ok {
		return
	}
	delete(f.children, key)
	for i, k := range f.order {
		if k == key {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
}

// Counter registers (idempotently) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, KindCounter, nil, nil)
	if f == nil {
		return nil
	}
	return f.childFor(nil).c
}

// Gauge registers (idempotently) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, KindGauge, nil, nil)
	if f == nil {
		return nil
	}
	return f.childFor(nil).g
}

// GaugeFunc registers a gauge whose value is computed by fn at
// collection time — the right shape for instantaneous readings like
// queue depth that already have an owner. Registering the same name
// again *adds* another func: collection reports the sum, so N
// identical subsystems sharing one registry (a fleet of per-env
// pipelines, say) expose a meaningful aggregate instead of whichever
// registration happened last. The returned func detaches fn again
// (idempotent): an owner that shuts down before the registry calls it,
// so the sum stops counting the owner and the registry stops holding
// it reachable.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) (remove func()) {
	f := r.family(name, help, KindGauge, nil, nil)
	if f == nil {
		return func() {}
	}
	ch := f.childFor(nil)
	h := ch.addGaugeFunc(fn)
	return func() { ch.removeGaugeFunc(h) }
}

// Histogram registers (idempotently) an unlabeled histogram with the
// given ascending bucket upper edges.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.family(name, help, KindHistogram, bounds, nil)
	if f == nil {
		return nil
	}
	return f.childFor(nil).h
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.family(name, help, KindCounter, nil, labels)
	if f == nil {
		return nil
	}
	return &CounterVec{f: f}
}

// With returns the child counter for the given label values, creating
// it on first use. Callers on hot paths should resolve children once
// and cache them.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.childFor(values).c
}

// Remove deletes the child counter for the given label values, ending
// the series. Callers holding the old *Counter keep a working but
// uncollected counter; With after Remove starts from zero.
func (v *CounterVec) Remove(values ...string) {
	if v == nil {
		return
	}
	v.f.remove(values)
}

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	f := r.family(name, help, KindGauge, nil, labels)
	if f == nil {
		return nil
	}
	return &GaugeVec{f: f}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.childFor(values).g
}

// Func attaches a collection-time value func to the child for the
// given label values — GaugeFunc with label dimensions. Like
// GaugeFunc, repeated attachment to one child sums at collection.
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	if v == nil {
		return
	}
	v.f.childFor(values).addGaugeFunc(fn)
}

// Remove deletes the child gauge for the given label values, ending
// the series and dropping any gauge funcs attached to it.
func (v *GaugeVec) Remove(values ...string) {
	if v == nil {
		return
	}
	v.f.remove(values)
}

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	f := r.family(name, help, KindHistogram, bounds, labels)
	if f == nil {
		return nil
	}
	return &HistogramVec{f: f}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.childFor(values).h
}

// Remove deletes the child histogram for the given label values,
// ending the series.
func (v *HistogramVec) Remove(values ...string) {
	if v == nil {
		return
	}
	v.f.remove(values)
}

// Snapshot is a flat point-in-time view of a registry for tests and
// debugging: metric identity (name plus rendered labels) → value.
// Counters and gauges contribute one entry each; histograms contribute
// "<name>_count" and "<name>_sum" entries.
type Snapshot map[string]float64

// Snapshot collects every metric. Gauge funcs are evaluated.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]*child, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		for _, ch := range children {
			id := metricID(f.name, f.labels, ch.values)
			switch f.kind {
			case KindCounter:
				s[id] = float64(ch.c.Value())
			case KindGauge:
				s[id] = ch.gaugeValue()
			case KindHistogram:
				b := ch.h.Buckets()
				s[metricID(f.name+"_count", f.labels, ch.values)] = float64(b.Count)
				s[metricID(f.name+"_sum", f.labels, ch.values)] = b.Sum
			}
		}
	}
	return s
}

// metricID renders name{k="v",...} (or the bare name when unlabeled).
func metricID(name string, labels, values []string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l, values[i])
	}
	b.WriteByte('}')
	return b.String()
}

// sortedIDs returns the snapshot's keys in sorted order — convenient
// for deterministic test output.
func (s Snapshot) sortedIDs() []string {
	ids := make([]string, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
