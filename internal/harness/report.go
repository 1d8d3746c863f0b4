package harness

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/order"
	"repro/internal/verify"
)

// RecordSchemaVersion identifies the Record field set. Bump it whenever
// a field is added or renamed: consumers of colorbench -matrix files
// group records by (schemaVersion, p). Version 3 is the one Record; it
// carries every field of the two schemas it replaced, the
// per-algorithm records of version 2 and the matrix cells of version 1.
const RecordSchemaVersion = 3

// Record is one cell of a Sweep: one algorithm run on one graph under
// one Config, with the paper's quality bound evaluated against the
// measured palette. Every field comes from the same run, the one with
// the median time among the cell's trials. colorbench -matrix writes a
// flat list of these; field names are part of that file's interface.
type Record struct {
	SchemaVersion int    `json:"schemaVersion"`
	Graph         string `json:"graph"`
	Vertices      int    `json:"vertices"`
	Arcs          int64  `json:"arcs"`
	Name          string `json:"name"`
	// P is the worker count the run was configured with.
	P       int     `json:"p"`
	Epsilon float64 `json:"epsilon"`
	// Seconds is ReorderSeconds + ColorSeconds; verification is not
	// timed.
	Seconds        float64 `json:"seconds"`
	ReorderSeconds float64 `json:"reorderSeconds"`
	ColorSeconds   float64 `json:"colorSeconds"`
	Colors         int     `json:"colors"`
	// Bound is the per-algorithm theoretical palette bound from the
	// paper (Table III) for this graph; BoundOK records Colors <= Bound.
	Bound           int   `json:"bound"`
	BoundOK         bool  `json:"boundOK"`
	Rounds          int   `json:"rounds"`
	OrderIterations int   `json:"orderIterations"`
	Conflicts       int64 `json:"conflicts"`
	EdgesScanned    int64 `json:"edgesScanned"`
	AtomicOps       int64 `json:"atomicOps"`
	Forks           int64 `json:"forks"`
	Dispatches      int64 `json:"dispatches"`
	SeqCutoffHits   int64 `json:"seqCutoffHits"`
	// GoMaxProcs records the host's GOMAXPROCS at run time, bounding how
	// much real parallelism P could buy on the machine that produced the
	// record.
	GoMaxProcs int `json:"goMaxProcs"`
}

// Sweep runs every cell of graphs × algorithms × configs trials times
// through RunChecked and returns one Record per cell, graph-major, then
// by algorithm, then by config. A cell keeps its median-time run
// (medianRun). The degeneracy behind the quality bound is computed once
// per graph. A run error or an improper coloring fails the whole sweep;
// a coloring over its bound does not, it is recorded with BoundOK false.
func Sweep(graphs []BuiltGraph, algorithms []Algorithm, configs []Config, trials int) ([]Record, error) {
	if trials < 1 {
		trials = 1
	}
	goMaxProcs := runtime.GOMAXPROCS(0)
	out := make([]Record, 0, len(graphs)*len(algorithms)*len(configs))
	runs := make([]Record, trials)
	for _, bg := range graphs {
		d := kcore.Degeneracy(bg.G)
		for _, a := range algorithms {
			for _, cfg := range configs {
				bound := verify.QualityBound(a.Name, bg.G, d, cfg.Epsilon)
				for t := range runs {
					res, err := RunChecked(a, bg.G, cfg)
					if err != nil {
						return nil, fmt.Errorf("harness: sweep on %s (p=%d, eps=%g): %w", bg.Name, cfg.Procs, cfg.Epsilon, err)
					}
					runs[t] = Record{
						SchemaVersion:   RecordSchemaVersion,
						Graph:           bg.Name,
						Vertices:        bg.G.NumVertices(),
						Arcs:            bg.G.NumArcs(),
						Name:            a.Name,
						P:               cfg.Procs,
						Epsilon:         cfg.Epsilon,
						Seconds:         res.TotalSeconds(),
						ReorderSeconds:  res.ReorderSeconds,
						ColorSeconds:    res.ColorSeconds,
						Colors:          res.NumColors,
						Bound:           bound,
						BoundOK:         res.NumColors <= bound,
						Rounds:          res.Rounds,
						OrderIterations: res.OrderIterations,
						Conflicts:       res.Conflicts,
						EdgesScanned:    res.EdgesScanned,
						AtomicOps:       res.AtomicOps,
						Forks:           res.Forks,
						Dispatches:      res.Dispatches,
						SeqCutoffHits:   res.SeqCutoffHits,
						GoMaxProcs:      goMaxProcs,
					}
				}
				out = append(out, medianRun(runs, func(r Record) float64 { return r.Seconds }))
			}
		}
	}
	return out, nil
}

// medianRun returns the median-time run of runs, the lower middle one
// for an even count, sorting runs by time. It is the one timing rule of
// every experiment: Sweep keeps each algorithm cell's median run, and
// medianOrdering each ordering's.
func medianRun[T any](runs []T, seconds func(T) float64) T {
	sort.Slice(runs, func(i, j int) bool { return seconds(runs[i]) < seconds(runs[j]) })
	return runs[(len(runs)-1)/2]
}

// medianOrdering runs build trials times (at least once) and returns the
// median-time run's ordering and its time in seconds.
func medianOrdering(trials int, build func() *order.Ordering) (*order.Ordering, float64) {
	type run struct {
		ord     *order.Ordering
		seconds float64
	}
	runs := make([]run, max(trials, 1))
	for i := range runs {
		runs[i].seconds = timed(func() { runs[i].ord = build() })
	}
	m := medianRun(runs, func(r run) float64 { return r.seconds })
	return m.ord, m.seconds
}

// MatrixReport is the family × algorithm × worker-count sweep of
// colorbench -matrix over the generated dataset suite (BuildSuite,
// grown by opts.Scale). algos selects algorithms by name (nil = the
// whole registry); procs lists the worker counts to sweep (nil =
// {1, 2, 4}).
func MatrixReport(opts Options, algos []string, procs []int) ([]Record, error) {
	opts = opts.withDefaults()
	selected := Registry()
	if len(algos) > 0 {
		var err error
		if selected, err = lookupAll(algos...); err != nil {
			return nil, fmt.Errorf("harness: matrix report: %v", err)
		}
	}
	if len(procs) == 0 {
		procs = []int{1, 2, 4}
	}
	suite, err := BuildSuite(opts.Scale)
	if err != nil {
		return nil, err
	}
	return Sweep(suite, selected, opts.procsConfigs(procs...), opts.Trials)
}

// lookupAll resolves registry names, in order.
func lookupAll(names ...string) ([]Algorithm, error) {
	out := make([]Algorithm, len(names))
	for i, name := range names {
		a, err := Lookup(name)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// single wraps one generated graph as a sweep's graph list.
func single(name string, g *graph.Graph) []BuiltGraph {
	return []BuiltGraph{{Dataset: Dataset{Name: name}, G: g}}
}
