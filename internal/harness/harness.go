// Package harness drives the reproduction of the paper's evaluation (§VI):
// it registers every implemented coloring algorithm behind a uniform
// interface with the reordering/coloring phase split of Fig. 1, builds the
// synthetic dataset suite standing in for Table V, and regenerates each
// table and figure (see EXPERIMENTS.md's experiment index E1–E9). Every
// algorithm × graph × setting cell an experiment reports runs through
// Sweep, which verifies, times and bound-checks it into one Record.
package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/jp"
	"repro/internal/mis"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/spec"
	"repro/internal/speculate"
	"repro/internal/verify"
)

// Class buckets algorithms the way Fig. 1 does.
type Class string

const (
	// ClassJP is the Jones–Plassmann (color-scheduling) family.
	ClassJP Class = "JP"
	// ClassSC is the speculative-coloring family.
	ClassSC Class = "SC"
	// ClassSeq is the sequential Greedy family (Table III class 2).
	ClassSeq Class = "Seq"
	// ClassMIS is the MIS-based family (Table III class 1).
	ClassMIS Class = "MIS"
)

// Config parameterizes a run.
type Config struct {
	Procs   int
	Seed    uint64
	Epsilon float64
	// Ctx, when non-nil, cancels the run cooperatively: the JP frontier
	// loop, the ADG peeling loop and the DEC partition loop check it once
	// per round and abort with ctx.Err(). nil means context.Background().
	Ctx context.Context
}

// ctx returns the run context, defaulting to context.Background().
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// RunResult is the uniform outcome record.
type RunResult struct {
	Colors         []uint32
	NumColors      int
	ReorderSeconds float64 // ordering / decomposition phase
	ColorSeconds   float64 // coloring phase
	Rounds         int     // parallel rounds (JP frontier rounds or
	// speculative rounds)
	Conflicts    int64 // re-colorings (speculative schemes)
	EdgesScanned int64 // work proxy
	AtomicOps    int64 // memory-pressure proxy (Fig. 4)
	// OrderIterations is the ordering phase's parallel round count
	// (ADG's O(log n) iterations; n for the sequential orders).
	OrderIterations int
	// Scheduler counters from the persistent par pool, scoped to this run
	// (deltas of the process-wide counters; concurrent runs would mix).
	Forks         int64 // fork-join regions that actually forked
	Dispatches    int64 // blocks handed to parked pool workers
	SeqCutoffHits int64 // regions run inline below the sequential grain
	// Phases names the run's internal phase timings (order/color for
	// the JP family, decompose/color for DEC, speculate/repair/fallback
	// for SPEC-ADG). The serving layer exports them per algorithm as
	// latency histograms and attaches them to request traces.
	Phases []PhaseTiming
}

// PhaseTiming is one named engine phase of a run.
type PhaseTiming struct {
	Name    string
	Seconds float64
}

// addPhase appends a phase timing, skipping zero-duration phases that
// never ran (e.g. SPEC-ADG's fallback on a clean run).
func (r *RunResult) addPhase(name string, seconds float64) {
	if seconds > 0 {
		r.Phases = append(r.Phases, PhaseTiming{Name: name, Seconds: seconds})
	}
}

// TotalSeconds is the full runtime.
func (r *RunResult) TotalSeconds() float64 { return r.ReorderSeconds + r.ColorSeconds }

// Algorithm is a registered coloring scheme. Run returns an error only
// when the run was cancelled through cfg.Ctx (cooperative checks in the
// JP/ADG/DEC round loops); an uncancellable scheme with a background
// context never fails.
type Algorithm struct {
	Name  string
	Class Class
	// Deterministic reports the strong Las Vegas property: for a fixed
	// seed the coloring is bit-identical at any Procs and under any
	// scheduling (what lets a serving layer cache results by
	// (graph, algorithm, seed, epsilon) alone). All algorithms always
	// produce proper colorings; the ones with Deterministic=false
	// (JP-ASL's shared removal counter, GM's racy speculative reads,
	// ITRB's Procs-sized batches) may produce different — still
	// proper — colorings across runs or worker counts. The cross-p
	// tests of internal/jp, internal/spec and internal/speculate pin the
	// property per engine, and the proptest matrix pins it for every
	// entry flagged here at p ∈ {1, 2, 8}.
	Deterministic bool
	Run           func(g *graph.Graph, cfg Config) (*RunResult, error)
}

// timed measures fn.
func timed(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// withPoolStats wraps an algorithm's run function so every RunResult
// carries the persistent pool's scheduling counters for that run.
func withPoolStats(run func(g *graph.Graph, cfg Config) (*RunResult, error)) func(g *graph.Graph, cfg Config) (*RunResult, error) {
	return func(g *graph.Graph, cfg Config) (*RunResult, error) {
		before := par.DefaultPoolStats()
		res, err := run(g, cfg)
		if err != nil {
			return nil, err
		}
		after := par.DefaultPoolStats()
		res.Forks = after.Forks - before.Forks
		res.Dispatches = after.Dispatches - before.Dispatches
		res.SeqCutoffHits = after.SeqCutoffHits - before.SeqCutoffHits
		return res, nil
	}
}

func jpAlgo(name string, deterministic bool, mkOrder func(g *graph.Graph, cfg Config) (*order.Ordering, error)) Algorithm {
	return Algorithm{
		Name:          name,
		Class:         ClassJP,
		Deterministic: deterministic,
		Run: withPoolStats(func(g *graph.Graph, cfg Config) (*RunResult, error) {
			res := &RunResult{}
			var ord *order.Ordering
			var err error
			res.ReorderSeconds = timed(func() { ord, err = mkOrder(g, cfg) })
			if err != nil {
				return nil, err
			}
			res.OrderIterations = ord.Iterations
			var jr *jp.Result
			res.ColorSeconds = timed(func() { jr, err = jp.ColorContext(cfg.ctx(), g, ord, cfg.Procs) })
			if err != nil {
				return nil, err
			}
			res.Colors = jr.Colors
			res.NumColors = jr.NumColors
			res.Rounds = jr.Rounds
			res.EdgesScanned = jr.EdgesScanned
			res.AtomicOps = jr.AtomicOps
			res.addPhase("order", res.ReorderSeconds)
			res.addPhase("color", res.ColorSeconds)
			return res, nil
		}),
	}
}

func specAlgo(name string, deterministic bool, run func(g *graph.Graph, cfg Config) *spec.Result) Algorithm {
	return Algorithm{
		Name:          name,
		Class:         ClassSC,
		Deterministic: deterministic,
		Run: withPoolStats(func(g *graph.Graph, cfg Config) (*RunResult, error) {
			// The ITR/ITRB/GM inner loops have no preemption points yet;
			// honor a cancelled or already-expired context before
			// starting at least (par.CtxErr sees expired deadlines even
			// when the context's timer goroutine was starved).
			if err := par.CtxErr(cfg.ctx()); err != nil {
				return nil, err
			}
			res := &RunResult{}
			var sr *spec.Result
			res.ColorSeconds = timed(func() { sr = run(g, cfg) })
			res.Colors = sr.Colors
			res.NumColors = sr.NumColors
			res.Rounds = sr.Rounds
			res.Conflicts = sr.Conflicts
			res.EdgesScanned = sr.EdgesScanned
			res.addPhase("color", res.ColorSeconds)
			return res, nil
		}),
	}
}

// decAlgo registers a DEC variant; every one is deterministic.
func decAlgo(name string, median, itrRule bool) Algorithm {
	return Algorithm{
		Name:          name,
		Class:         ClassSC,
		Deterministic: true,
		Run: withPoolStats(func(g *graph.Graph, cfg Config) (*RunResult, error) {
			ctx := cfg.ctx()
			opts := spec.Options{Procs: cfg.Procs, Seed: cfg.Seed, Epsilon: cfg.Epsilon}
			res := &RunResult{}
			var ord *order.Ordering
			var err error
			res.ReorderSeconds = timed(func() { ord, err = spec.DecomposeOrderingContext(ctx, g, opts, median) })
			if err != nil {
				return nil, err
			}
			res.OrderIterations = ord.Iterations
			var sr *spec.Result
			res.ColorSeconds = timed(func() { sr, err = spec.ColorDecompositionContext(ctx, g, ord, opts, itrRule) })
			if err != nil {
				return nil, err
			}
			res.Colors = sr.Colors
			res.NumColors = sr.NumColors
			res.Rounds = sr.Rounds
			res.Conflicts = sr.Conflicts
			res.EdgesScanned = sr.EdgesScanned
			res.addPhase("decompose", res.ReorderSeconds)
			res.addPhase("color", res.ColorSeconds)
			return res, nil
		}),
	}
}

// seqAlgo registers a sequential Greedy yardstick, deterministic by
// construction.
func seqAlgo(name string, run func(g *graph.Graph, cfg Config) *greedy.Result) Algorithm {
	return Algorithm{
		Name:          name,
		Class:         ClassSeq,
		Deterministic: true,
		Run: withPoolStats(func(g *graph.Graph, cfg Config) (*RunResult, error) {
			if err := par.CtxErr(cfg.ctx()); err != nil {
				return nil, err
			}
			res := &RunResult{}
			var gr *greedy.Result
			res.ColorSeconds = timed(func() { gr = run(g, cfg) })
			res.Colors = gr.Colors
			res.NumColors = gr.NumColors
			res.addPhase("color", res.ColorSeconds)
			return res, nil
		}),
	}
}

// The registry is immutable after construction; it is built once and
// memoized because Lookup sits on the serving hot path (every /v1/color
// request) where rebuilding the table per call is pure allocation churn.
var (
	registryOnce   sync.Once
	registryAlgos  []Algorithm
	registryByName map[string]Algorithm
)

func initRegistry() {
	registryOnce.Do(func() {
		registryAlgos = registryList()
		registryByName = make(map[string]Algorithm, len(registryAlgos))
		for _, a := range registryAlgos {
			registryByName[a.Name] = a
		}
	})
}

// Registry returns every implemented algorithm keyed by name. The
// returned slice is a copy; the Algorithm values share the memoized
// closures.
func Registry() []Algorithm {
	initRegistry()
	return append([]Algorithm(nil), registryAlgos...)
}

func registryList() []Algorithm {
	return []Algorithm{
		// Jones–Plassmann family (Table III class 3).
		jpAlgo("JP-FF", true, func(g *graph.Graph, cfg Config) (*order.Ordering, error) { return order.FirstFit(g), nil }),
		jpAlgo("JP-R", true, func(g *graph.Graph, cfg Config) (*order.Ordering, error) { return order.Random(g, cfg.Seed), nil }),
		jpAlgo("JP-LF", true, func(g *graph.Graph, cfg Config) (*order.Ordering, error) { return order.LargestFirst(g, cfg.Seed), nil }),
		jpAlgo("JP-LLF", true, func(g *graph.Graph, cfg Config) (*order.Ordering, error) {
			return order.LargestLogFirst(g, cfg.Seed), nil
		}),
		jpAlgo("JP-SL", true, func(g *graph.Graph, cfg Config) (*order.Ordering, error) { return order.SmallestLast(g), nil }),
		jpAlgo("JP-SLL", true, func(g *graph.Graph, cfg Config) (*order.Ordering, error) {
			return order.SmallestLogLast(g, cfg.Seed, cfg.Procs), nil
		}),
		jpAlgo("JP-ASL", false, func(g *graph.Graph, cfg Config) (*order.Ordering, error) {
			return order.ApproxSmallestLast(g, cfg.Seed, cfg.Procs), nil
		}),
		jpAlgo("JP-ADG", true, func(g *graph.Graph, cfg Config) (*order.Ordering, error) {
			return order.ADGContext(cfg.ctx(), g, order.ADGOptions{Epsilon: cfg.Epsilon, Procs: cfg.Procs, Seed: cfg.Seed, Sorted: true})
		}),
		jpAlgo("JP-ADG-M", true, func(g *graph.Graph, cfg Config) (*order.Ordering, error) {
			return order.ADGContext(cfg.ctx(), g, order.ADGOptions{Median: true, Procs: cfg.Procs, Seed: cfg.Seed, Sorted: true})
		}),
		// Speculative family (class 1 + contributions #3/#4). ITR is
		// deterministic: its tentative pass reads only colors the
		// previous round's apply step fixed. ITRB's batches are sized
		// by Procs, and GM's workers read each other's in-flight colors.
		specAlgo("ITR", true, func(g *graph.Graph, cfg Config) *spec.Result {
			return spec.ITR(g, spec.Options{Procs: cfg.Procs, Seed: cfg.Seed})
		}),
		specAlgo("ITRB", false, func(g *graph.Graph, cfg Config) *spec.Result {
			return spec.ITRB(g, spec.Options{Procs: cfg.Procs, Seed: cfg.Seed})
		}),
		specAlgo("GM", false, func(g *graph.Graph, cfg Config) *spec.Result {
			return spec.GM(g, spec.Options{Procs: cfg.Procs, Seed: cfg.Seed})
		}),
		decAlgo("DEC-ADG", false, false),
		decAlgo("DEC-ADG-ITR", false, true),
		// Static speculate-and-repair over the ADG-O order (class 1,
		// internal/speculate): chunked optimistic greedy, within-chunk
		// conflict detection, localized JP-over-ADG repair. Unlike
		// ITRB/GM it never reads in-flight colors, so it keeps the
		// strong Las Vegas property.
		{
			Name:          "SPEC-ADG",
			Class:         ClassSC,
			Deterministic: true,
			Run: withPoolStats(func(g *graph.Graph, cfg Config) (*RunResult, error) {
				res := &RunResult{}
				var sr *speculate.Result
				var err error
				total := timed(func() {
					sr, err = speculate.ColorContext(cfg.ctx(), g, speculate.Options{
						Procs: cfg.Procs, Seed: cfg.Seed, Epsilon: cfg.Epsilon,
					})
				})
				if err != nil {
					return nil, err
				}
				res.ReorderSeconds = sr.ReorderSeconds
				res.ColorSeconds = total - sr.ReorderSeconds
				res.OrderIterations = sr.OrderIterations
				res.Colors = sr.Colors
				res.NumColors = sr.NumColors
				res.Rounds = sr.Rounds
				res.Conflicts = sr.Conflicts
				res.EdgesScanned = sr.EdgesScanned
				res.addPhase("order", sr.ReorderSeconds)
				res.addPhase("speculate", sr.SpecSeconds)
				res.addPhase("repair", sr.RepairSeconds)
				res.addPhase("fallback", sr.FallbackSeconds)
				return res, nil
			}),
		},
		// MIS family.
		{
			Name:          "Luby-MIS",
			Class:         ClassMIS,
			Deterministic: true,
			Run: withPoolStats(func(g *graph.Graph, cfg Config) (*RunResult, error) {
				if err := par.CtxErr(cfg.ctx()); err != nil {
					return nil, err
				}
				res := &RunResult{}
				var mr *mis.Result
				res.ColorSeconds = timed(func() { mr = mis.ColorByMIS(g, cfg.Seed, cfg.Procs) })
				res.Colors = mr.Colors
				res.NumColors = mr.NumColors
				res.Rounds = mr.Rounds
				res.addPhase("color", res.ColorSeconds)
				return res, nil
			}),
		},
		// Sequential Greedy yardsticks (Table III class 2).
		seqAlgo("Greedy-ID", func(g *graph.Graph, cfg Config) *greedy.Result { return greedy.ID(g) }),
		seqAlgo("Greedy-SD", func(g *graph.Graph, cfg Config) *greedy.Result { return greedy.SD(g) }),
	}
}

// Lookup returns the registered algorithm with the given name.
func Lookup(name string) (Algorithm, error) {
	initRegistry()
	if a, ok := registryByName[name]; ok {
		return a, nil
	}
	return Algorithm{}, fmt.Errorf("harness: unknown algorithm %q", name)
}

// Names lists registry names in order.
func Names() []string {
	var out []string
	for _, a := range Registry() {
		out = append(out, a.Name)
	}
	return out
}

// RunChecked runs a and verifies the coloring, returning an error on an
// improper result — used everywhere so no experiment can report numbers
// from a broken coloring — or when cfg.Ctx cancelled the run.
func RunChecked(a Algorithm, g *graph.Graph, cfg Config) (*RunResult, error) {
	res, err := a.Run(g, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	if err := verify.CheckProper(g, res.Colors); err != nil {
		return nil, fmt.Errorf("%s: %v", a.Name, err)
	}
	return res, nil
}
