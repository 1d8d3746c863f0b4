package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
)

// The traced run issues each operation once per depth of a layer ladder,
// deepest first, each time through a public call with the same input:
//
//	1  the engine: harness.RunChecked, or dynamic.Colored.Apply for writes
//	2  service.Manager.Color, GraphEntry.Mutate or GraphEntry.MaintainedColors
//	3  service.Server.Handler().ServeHTTP on an in-memory request
//	4  the HTTP call to the colord subprocess
//
// A layer's self time is its depth's span minus the next deeper span of
// the same operation.
var spanNames = map[string][5]string{
	"color": {"", "harness.RunChecked", "service.Manager.Color", "service.Server.ServeHTTP", "colord.http"},
	"write": {"", "dynamic.Colored.Apply", "service.GraphEntry.Mutate", "service.Server.ServeHTTP", "colord.http"},
	"read":  {"", "", "service.GraphEntry.MaintainedColors", "service.Server.ServeHTTP", "colord.http"},
	// idle reads of the maintained coloring, with the writer stopped
	"idle": {"", "", "service.GraphEntry.MaintainedColors", "", ""},
}

// opRec is one traced operation: its span at each depth it was issued
// at, in nanoseconds since the tracer's epoch (End 0: not issued).
type opRec struct {
	op         int64
	kind, algo string
	start, end [5]int64
	phases     []harness.PhaseTiming // the engine's phases at depth 1
}

func (r *opRec) has(d int) bool  { return r.end[d] != 0 }
func (r *opRec) dur(d int) int64 { return r.end[d] - r.start[d] }

// self is the operation's self time at depth d in microseconds.
func (r *opRec) self(d int) float64 {
	s := r.dur(d)
	if d > 1 && r.has(d-1) {
		s -= r.dur(d - 1)
	}
	return float64(s) / 1e3
}

// tracer keeps every traced operation in memory until the run ends. A
// nil tracer runs the timed calls without recording them.
type tracer struct {
	epoch time.Time
	ops   atomic.Int64
	mu    sync.Mutex
	recs  []*opRec
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(kind, algo string) *opRec {
	if t == nil {
		return nil
	}
	return &opRec{op: t.ops.Add(1), kind: kind, algo: algo}
}

// time runs fn as depth d of r.
func (t *tracer) time(r *opRec, d int, fn func()) {
	if t == nil {
		fn()
		return
	}
	r.start[d] = int64(time.Since(t.epoch))
	fn()
	r.end[d] = int64(time.Since(t.epoch))
}

func (t *tracer) finish(r *opRec) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
}

// span is one line of the spans file.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Algo   string `json:"algo,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// write stores every span as one JSON line; a depth's parent is the next
// shallower depth issued for the same operation.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range t.recs {
		for d := 1; d <= 4; d++ {
			if !r.has(d) {
				continue
			}
			s := span{ID: r.op*8 + int64(d), Op: r.op, Name: spanNames[r.kind][d], Algo: r.algo, Start: r.start[d], End: r.end[d]}
			for p := d + 1; p <= 4; p++ {
				if r.has(p) {
					s.Parent = r.op*8 + int64(p)
					break
				}
			}
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfP50 is the median self time in microseconds at depth d over the
// operations of one kind (and one algorithm, when algo is not empty).
func (t *tracer) selfP50(kind, algo string, d int) (float64, int) {
	var xs []float64
	for _, r := range t.recs {
		if r.kind == kind && (algo == "" || r.algo == algo) && r.has(d) {
			xs = append(xs, r.self(d))
		}
	}
	return median(xs), len(xs)
}

// spanP50 is the median span in microseconds at depth d.
func (t *tracer) spanP50(kind, algo string, d int) float64 {
	var xs []float64
	for _, r := range t.recs {
		if r.kind == kind && (algo == "" || r.algo == algo) && r.has(d) {
			xs = append(xs, float64(r.dur(d))/1e3)
		}
	}
	return median(xs)
}

// phaseMetrics maps RunResult phases to per-layer metric names.
var phaseMetrics = []struct{ metric, algo, phase string }{
	{"order.order_ms", "JP-ADG", "order"},
	{"jp.color_ms", "JP-ADG", "color"},
	{"spec.decompose_ms", "DEC-ADG-ITR", "decompose"},
	{"spec.color_ms", "DEC-ADG-ITR", "color"},
	{"order.order_ms", "SPEC-ADG", "order"},
	{"speculate.speculate_ms", "SPEC-ADG", "speculate"},
	{"speculate.repair_ms", "SPEC-ADG", "repair"},
}

// engineSample is one timed harness.RunChecked call.
type engineSample struct {
	algo   string
	ms     float64
	phases []harness.PhaseTiming
}

// engineLayers fills the harness, engine-phase and par metrics: times
// from samples, counts from one reference run per key (the counts of a
// fixed seed repeat exactly, so they come from a fixed set of runs).
func engineLayers(layers map[string]float64, samples []engineSample, ks []key, refs []*harness.RunResult) {
	for _, a := range keyAlgos {
		var run, ver []float64
		phase := map[string][]float64{}
		for _, s := range samples {
			if s.algo != a {
				continue
			}
			run = append(run, s.ms)
			rest := s.ms
			for _, p := range s.phases {
				phase[p.Name] = append(phase[p.Name], p.Seconds*1e3)
				rest -= p.Seconds * 1e3
			}
			ver = append(ver, rest)
		}
		layers["harness.run_ms."+a] = median(run)
		layers["harness.verify_ms."+a] = median(ver)
		for _, pm := range phaseMetrics {
			if pm.algo == a {
				layers[pm.metric+"."+a] = median(phase[pm.phase])
			}
		}
		var rounds, iters, edges, conflicts, forks, disp, cutoff []float64
		for i, r := range refs {
			if ks[i].algo != a {
				continue
			}
			rounds = append(rounds, float64(r.Rounds))
			iters = append(iters, float64(r.OrderIterations))
			edges = append(edges, float64(r.EdgesScanned))
			conflicts = append(conflicts, float64(r.Conflicts))
			forks = append(forks, float64(r.Forks))
			disp = append(disp, float64(r.Dispatches))
			cutoff = append(cutoff, float64(r.SeqCutoffHits))
		}
		layers["harness.rounds."+a] = median(rounds)
		layers["harness.order_iterations."+a] = median(iters)
		layers["harness.edges_scanned."+a] = median(edges)
		layers["harness.conflicts."+a] = median(conflicts)
		layers["par.forks."+a] = median(forks)
		layers["par.dispatches."+a] = median(disp)
		layers["par.seq_cutoff_hits."+a] = median(cutoff)
	}
}

// selfSumTolerance is the relative gap the run record accepts between
// the sum of the main operation's self-time medians and its round-trip
// median: per operation the self times add up exactly, their medians not.
const selfSumTolerance = 0.10

// additivity is that relative gap.
func additivity(rtt float64, selfs ...float64) float64 {
	if rtt == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range selfs {
		sum += s
	}
	return (sum - rtt) / rtt
}

func spansPath(cfg runConfig) string {
	return filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}
