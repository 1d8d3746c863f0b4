package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. All constructors and lookups are safe for
// concurrent use; a nil *Registry yields nil vecs, whose series are
// nil, whose Observe/Add are no-ops — so instrumentation can be wired
// unconditionally and enabled by simply attaching a registry.
type Registry struct {
	mu       sync.RWMutex
	families []*family
}

type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	labels []string
	bounds []float64 // histograms only

	mu     sync.RWMutex
	series map[string]*series
}

type series struct {
	labelValues []string
	val         atomic.Int64 // counters/gauges (gauges store float bits)
	hist        *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) addFamily(name, help, typ string, labels []string, bounds []float64) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := &family{name: name, help: help, typ: typ, labels: labels, bounds: bounds, series: map[string]*series{}}
	r.families = append(r.families, f)
	return f
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct{ f *family }

// CounterVec is a family of monotonically increasing counters.
type CounterVec struct{ f *family }

// GaugeVec is a family of settable gauges.
type GaugeVec struct{ f *family }

// Counter is one counter series. Nil-safe.
type Counter struct{ s *series }

// Gauge is one gauge series. Nil-safe.
type Gauge struct{ s *series }

// NewHistogramVec registers a histogram family. nil bounds selects
// the default latency buckets.
func (r *Registry) NewHistogramVec(name, help string, labels []string, bounds []float64) *HistogramVec {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = defaultLatencyBounds
	}
	return &HistogramVec{f: r.addFamily(name, help, "histogram", labels, bounds)}
}

// NewCounterVec registers a counter family.
func (r *Registry) NewCounterVec(name, help string, labels []string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.addFamily(name, help, "counter", labels, nil)}
}

// NewGaugeVec registers a gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels []string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.addFamily(name, help, "gauge", labels, nil)}
}

// seriesKey joins label values; 0x1f never occurs in our label values
// (endpoints, peer URLs, algorithm names).
func seriesKey(values []string) string { return strings.Join(values, "\x1f") }

func (f *family) get(values []string) *series {
	if f == nil {
		return nil
	}
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	if f.typ == "histogram" {
		s.hist = NewHistogram(f.bounds)
	}
	f.series[key] = s
	return s
}

// With resolves (creating on first use) the histogram for the given
// label values. Nil-safe: a nil vec returns a nil *Histogram.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.get(values).hist
}

// Snapshots returns every series keyed by comma-joined label values.
func (v *HistogramVec) Snapshots() map[string]HistogramSnapshot {
	if v == nil || v.f == nil {
		return nil
	}
	v.f.mu.RLock()
	defer v.f.mu.RUnlock()
	out := make(map[string]HistogramSnapshot, len(v.f.series))
	for _, s := range v.f.series {
		out[strings.Join(s.labelValues, ",")] = s.hist.Snapshot()
	}
	return out
}

// With resolves the counter for the given label values.
func (v *CounterVec) With(values ...string) Counter {
	if v == nil || v.f == nil {
		return Counter{}
	}
	return Counter{s: v.f.get(values)}
}

// Values returns every series' count keyed by comma-joined label
// values.
func (v *CounterVec) Values() map[string]int64 {
	if v == nil || v.f == nil {
		return nil
	}
	v.f.mu.RLock()
	defer v.f.mu.RUnlock()
	out := make(map[string]int64, len(v.f.series))
	for _, s := range v.f.series {
		out[strings.Join(s.labelValues, ",")] = s.val.Load()
	}
	return out
}

// Add increments the counter. Nil-safe.
func (c Counter) Add(n int64) {
	if c.s != nil {
		c.s.val.Add(n)
	}
}

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c Counter) Value() int64 {
	if c.s == nil {
		return 0
	}
	return c.s.val.Load()
}

// With resolves the gauge for the given label values.
func (v *GaugeVec) With(values ...string) Gauge {
	if v == nil || v.f == nil {
		return Gauge{}
	}
	return Gauge{s: v.f.get(values)}
}

// Set stores the gauge value. Nil-safe.
func (g Gauge) Set(v float64) {
	if g.s != nil {
		g.s.val.Store(int64(floatBits(v)))
	}
}

// Value returns the current gauge value.
func (g Gauge) Value() float64 {
	if g.s == nil {
		return 0
	}
	return bitsFloat(uint64(g.s.val.Load()))
}

// WriteProm renders every registered family in Prometheus text
// exposition format: families sorted by name, series sorted by label
// values, histograms as cumulative _bucket{le=...}/_sum/_count.
func (r *Registry) WriteProm(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.RLock()
	fams := append([]*family(nil), r.families...)
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(keys) > 0 {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		}
		for _, k := range keys {
			s := f.series[k]
			switch f.typ {
			case "histogram":
				writePromHistogram(w, f.name, f.labels, s.labelValues, s.hist.Snapshot())
			case "gauge":
				fmt.Fprintf(w, "%s%s %s\n", f.name, promLabels(f.labels, s.labelValues, "", ""), formatFloat(bitsFloat(uint64(s.val.Load()))))
			default:
				fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(f.labels, s.labelValues, "", ""), s.val.Load())
			}
		}
		f.mu.RUnlock()
	}
}

func writePromHistogram(w io.Writer, name string, labels, values []string, snap HistogramSnapshot) {
	var cum int64
	for i, c := range snap.Buckets {
		cum += c
		le := "+Inf"
		if i < len(snap.Bounds) {
			le = formatFloat(snap.Bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(labels, values, "le", le), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(labels, values, "", ""), formatFloat(snap.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(labels, values, "", ""), snap.Count)
}

// promLabels renders {k1="v1",...}, optionally appending one extra
// pair (the histogram le label). Empty label sets render as "".
func promLabels(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
