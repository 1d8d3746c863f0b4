package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. A family is either stored — counters and
// histograms whose series the registry holds and call sites update —
// or read at scrape time (NewFunc) from the owner of its values. All
// constructors and lookups are safe for concurrent use; a nil
// *Registry yields nil vecs, whose series are nil, whose Observe/Add
// are no-ops — so instrumentation can be wired unconditionally and
// enabled by simply attaching a registry.
type Registry struct {
	mu       sync.RWMutex
	families []*family
}

type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	labels []string
	bounds []float64       // stored histograms only
	read   func() []Sample // scrape-time families only

	mu     sync.RWMutex
	series map[string]*series
}

type series struct {
	labelValues []string
	val         atomic.Int64 // counters
	hist        *Histogram
}

// Sample is one series as a scrape reads it: its label values, in the
// family's label order, and its value, or in a histogram family its
// snapshot.
type Sample struct {
	Labels []string
	Value  float64
	Hist   HistogramSnapshot
}

// Value is the one sample of a family without labels.
func Value(v float64) []Sample { return []Sample{{Value: v}} }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(f *family) *family {
	if r == nil {
		return nil
	}
	f.series = map[string]*series{}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families = append(r.families, f)
	return f
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct{ f *family }

// CounterVec is a family of monotonically increasing counters.
type CounterVec struct{ f *family }

// Counter is one counter series. Nil-safe.
type Counter struct{ s *series }

// NewHistogramVec registers a histogram family. nil bounds selects
// the default latency buckets.
func (r *Registry) NewHistogramVec(name, help string, labels []string, bounds []float64) *HistogramVec {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = defaultLatencyBounds
	}
	return &HistogramVec{f: r.add(&family{name: name, help: help, typ: "histogram", labels: labels, bounds: bounds})}
}

// NewCounterVec registers a counter family.
func (r *Registry) NewCounterVec(name, help string, labels []string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.add(&family{name: name, help: help, typ: "counter", labels: labels})}
}

// NewFunc registers a family of type typ ("counter", "gauge" or
// "histogram") whose series the registry does not hold: read returns
// them at every scrape, in any order, from the state their owner keeps
// (a metrics snapshot taken for this scrape, a merged peer document),
// so the exposition cannot drift from that state. A scrape whose read
// returns no samples leaves the family out.
func (r *Registry) NewFunc(name, help, typ string, labels []string, read func() []Sample) {
	r.add(&family{name: name, help: help, typ: typ, labels: labels, read: read})
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

// WriteProm renders every registered family in Prometheus text
// exposition format: families sorted by name, series sorted by label
// values, histograms as cumulative _bucket{le=...}/_sum/_count. A
// family with no series is left out.
func (r *Registry) WriteProm(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.RLock()
	fams := append([]*family(nil), r.families...)
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		samples := f.samples()
		if len(samples) == 0 {
			continue
		}
		sort.Slice(samples, func(i, j int) bool { return slices.Compare(samples[i].Labels, samples[j].Labels) < 0 })
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range samples {
			if f.typ == "histogram" {
				writePromHistogram(w, f.name, f.labels, s.Labels, s.Hist)
				continue
			}
			fmt.Fprintf(w, "%s%s %s\n", f.name, promLabels(f.labels, s.Labels, "", ""), formatFloat(s.Value))
		}
	}
}

// samples reads a family's series: from its owner for a scrape-time
// family, from the registry's own series otherwise.
func (f *family) samples() []Sample {
	if f.read != nil {
		return f.read()
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]Sample, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, Sample{Labels: s.labelValues, Value: float64(s.val.Load()), Hist: s.hist.Snapshot()})
	}
	return out
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

// formatFloat prints integral values as integers, so counters and byte
// sizes read in full rather than in exponent form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
