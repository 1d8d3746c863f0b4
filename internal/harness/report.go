package harness

import (
	"fmt"
	"runtime"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/verify"
)

// AlgoRecordSchemaVersion identifies the AlgoRecord field set. Bump it
// whenever a field is added/renamed so the per-commit BENCH_*.json
// trajectory (accumulated by the CI bench-smoke artifact) stays
// comparable across records: consumers group by (schemaVersion, p).
// Version 2 added schemaVersion, p and goMaxProcs — without p, records
// produced on different machines or -procs settings were silently mixed.
const AlgoRecordSchemaVersion = 2

// AlgoRecord is the machine-readable per-algorithm benchmark record that
// colorbench -json emits. Future PRs track a BENCH_*.json trajectory of
// these, so field names are part of the interface: keep them stable.
type AlgoRecord struct {
	SchemaVersion  int     `json:"schemaVersion"`
	Name           string  `json:"name"`
	Seconds        float64 `json:"seconds"`
	ReorderSeconds float64 `json:"reorderSeconds"`
	Colors         int     `json:"colors"`
	Rounds         int     `json:"rounds"`
	EdgesScanned   int64   `json:"edgesScanned"`
	Forks          int64   `json:"forks"`
	Dispatches     int64   `json:"dispatches"`
	SeqCutoffHits  int64   `json:"seqCutoffHits"`
	// P is the worker count the run was configured with (-procs).
	P int `json:"p"`
	// GoMaxProcs records the host's GOMAXPROCS at run time, bounding how
	// much real parallelism P could buy on the machine that produced the
	// record.
	GoMaxProcs int `json:"goMaxProcs"`
}

// MatrixRecordSchemaVersion identifies the MatrixRecord field set.
const MatrixRecordSchemaVersion = 1

// MatrixRecord is one cell of the family × algorithm × worker-count
// benchmark matrix: one algorithm run on one suite
// graph at one worker count, with the paper's quality bound evaluated
// against the measured palette. colorbench -matrix emits a flat list of
// these; BENCH_PR8.json is the first published sweep.
type MatrixRecord struct {
	SchemaVersion  int     `json:"schemaVersion"`
	Graph          string  `json:"graph"`
	Vertices       int     `json:"vertices"`
	Arcs           int64   `json:"arcs"`
	Name           string  `json:"name"`
	P              int     `json:"p"`
	Seconds        float64 `json:"seconds"`
	ReorderSeconds float64 `json:"reorderSeconds"`
	Colors         int     `json:"colors"`
	// Bound is the per-algorithm theoretical palette bound from the
	// paper (Table III) for this graph; BoundOK records Colors <= Bound.
	Bound        int   `json:"bound"`
	BoundOK      bool  `json:"boundOK"`
	Rounds       int   `json:"rounds"`
	Conflicts    int64 `json:"conflicts"`
	EdgesScanned int64 `json:"edgesScanned"`
	GoMaxProcs   int   `json:"goMaxProcs"`
}

// MatrixReport runs the full family × algorithm × worker-count sweep
// over the generated dataset suite (BuildSuite, grown by opts.Scale).
// algos selects algorithms by name (nil = the whole registry); procs
// lists the worker counts to sweep (nil = {1, 2, 4}). Every run goes
// through RunChecked, so an improper coloring fails the sweep rather
// than producing a record. opts.Trials repetitions are timed per cell
// and the fastest kept, like JSONReport.
func MatrixReport(opts Options, algos []string, procs []int) ([]MatrixRecord, error) {
	opts = opts.withDefaults()
	selected := Registry()
	if len(algos) > 0 {
		selected = selected[:0:0]
		for _, name := range algos {
			a, err := Lookup(name)
			if err != nil {
				return nil, fmt.Errorf("harness: matrix report: %v", err)
			}
			selected = append(selected, a)
		}
	}
	if len(procs) == 0 {
		procs = []int{1, 2, 4}
	}
	suite, err := BuildSuite(opts.Scale)
	if err != nil {
		return nil, err
	}
	var out []MatrixRecord
	for _, bg := range suite {
		d := kcore.Degeneracy(bg.G)
		for _, a := range selected {
			for _, p := range procs {
				cfg := opts.cfg()
				cfg.Procs = p
				var best *RunResult
				for t := 0; t < opts.Trials; t++ {
					res, err := RunChecked(a, bg.G, cfg)
					if err != nil {
						return nil, fmt.Errorf("harness: matrix report: %s on %s (p=%d): %v", a.Name, bg.Name, p, err)
					}
					if best == nil || res.TotalSeconds() < best.TotalSeconds() {
						best = res
					}
				}
				bound := verify.QualityBound(a.Name, bg.G, d, opts.Epsilon)
				out = append(out, MatrixRecord{
					SchemaVersion:  MatrixRecordSchemaVersion,
					Graph:          bg.Name,
					Vertices:       bg.G.NumVertices(),
					Arcs:           bg.G.NumArcs(),
					Name:           a.Name,
					P:              p,
					Seconds:        best.TotalSeconds(),
					ReorderSeconds: best.ReorderSeconds,
					Colors:         best.NumColors,
					Bound:          bound,
					BoundOK:        best.NumColors <= bound,
					Rounds:         best.Rounds,
					Conflicts:      best.Conflicts,
					EdgesScanned:   best.EdgesScanned,
					GoMaxProcs:     runtime.GOMAXPROCS(0),
				})
			}
		}
	}
	return out, nil
}

// BenchmarkGraph builds the shared medium Kronecker instance (scale 13,
// edge factor 16) that bench_test.go and the -json report both measure,
// so CLI numbers and `go test -bench` numbers are comparable.
func BenchmarkGraph() (*graph.Graph, error) {
	return gen.Kronecker(13, 16, 1, 0)
}

// JSONReport runs every registered algorithm on the shared benchmark
// instance — grown by opts.Scale the same way the suite grows (scale 1
// is exactly BenchmarkGraph) — and returns one record per algorithm.
// Each algorithm is timed opts.Trials times and the fastest repetition
// is kept (colors, rounds and the scheduler counters come from that
// repetition, which for the Las Vegas schemes are identical across
// repetitions anyway).
func JSONReport(opts Options) ([]AlgoRecord, error) {
	opts = opts.withDefaults()
	g, err := gen.Kronecker(13+log2i(opts.Scale), 16, 1, 0)
	if err != nil {
		return nil, err
	}
	cfg := opts.cfg()
	var out []AlgoRecord
	for _, a := range Registry() {
		var best *RunResult
		for t := 0; t < opts.Trials; t++ {
			res, err := RunChecked(a, g, cfg)
			if err != nil {
				return nil, fmt.Errorf("harness: json report: %v", err)
			}
			if best == nil || res.TotalSeconds() < best.TotalSeconds() {
				best = res
			}
		}
		out = append(out, AlgoRecord{
			SchemaVersion:  AlgoRecordSchemaVersion,
			Name:           a.Name,
			Seconds:        best.TotalSeconds(),
			ReorderSeconds: best.ReorderSeconds,
			Colors:         best.NumColors,
			Rounds:         best.Rounds,
			EdgesScanned:   best.EdgesScanned,
			Forks:          best.Forks,
			Dispatches:     best.Dispatches,
			SeqCutoffHits:  best.SeqCutoffHits,
			P:              cfg.Procs,
			GoMaxProcs:     runtime.GOMAXPROCS(0),
		})
	}
	return out, nil
}
