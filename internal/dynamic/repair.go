package dynamic

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/jp"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/verify"
)

// Options parameterizes a Colored. The zero value selects the paper's
// evaluation settings: ε = 0.01, GOMAXPROCS workers, seed 0 and a 25%
// dirty-fraction fallback threshold.
type Options struct {
	// Procs is the worker count for detection, repair and recolor
	// passes (<= 0: GOMAXPROCS).
	Procs int
	// Seed fixes all randomness; with equal seeds the maintained
	// coloring is a deterministic function of the batch sequence.
	Seed uint64
	// Epsilon is the ADG ε used for both the initial/full recolors and
	// the localized repair priorities (0 selects 0.01).
	Epsilon float64
	// FallbackFraction caps the incremental path: when the dirty set
	// exceeds this fraction of the vertices, repair falls back to a
	// full JP-ADG recolor (0 selects 0.25; negative disables fallback).
	FallbackFraction float64
}

func (o Options) withDefaults() Options {
	if o.Procs <= 0 {
		o.Procs = par.DefaultProcs()
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.01
	}
	if o.FallbackFraction == 0 {
		o.FallbackFraction = 0.25
	}
	return o
}

// Result reports one Apply: what the batch changed, the conflict
// frontier it created, and how the repair resolved it.
type Result struct {
	// Version is the overlay version after the batch.
	Version uint64
	// AddedEdges/RemovedEdges/NewVertices are the materialized diff.
	AddedEdges   int
	RemovedEdges int
	NewVertices  int
	// ConflictEdges counts inserted edges that were monochromatic.
	ConflictEdges int
	// Dirty is the repair frontier: both endpoints of every conflict
	// edge plus the batch's new vertices, deduplicated and sorted.
	// The repair pass writes colors only inside this set.
	Dirty []uint32
	// Repaired counts vertices whose color actually changed (for a
	// fallback recolor: changes across the whole graph).
	Repaired int
	// Rounds is the localized JP pass's frontier round count (or the
	// full recolor's rounds when Fallback).
	Rounds int
	// Fallback reports that the dirty set exceeded the threshold and a
	// full JP-ADG recolor ran instead of the localized pass.
	Fallback bool
	// NumColors is the color count after the repair.
	NumColors int
}

// Colored maintains a proper coloring of a mutable graph. Mutation
// batches are applied through Apply, which repairs the coloring
// incrementally. Colored is not safe for concurrent use.
type Colored struct {
	ov     *Overlay
	opts   Options
	colors []uint32

	numColors    int
	repairs      int
	fullRecolors int
}

// NewColored builds the initial coloring of base with a full JP-ADG
// run and wraps it for incremental maintenance.
func NewColored(base *graph.Graph, opts Options) *Colored {
	c := &Colored{ov: NewOverlay(base), opts: opts.withDefaults()}
	colors, _ := c.fullColor(base)
	c.colors = colors
	c.numColors = verify.NumColors(colors)
	return c
}

// Overlay exposes the underlying mutable graph (read-only use).
func (c *Colored) Overlay() *Overlay { return c.ov }

// Version returns the overlay version.
func (c *Colored) Version() uint64 { return c.ov.Version() }

// NumColors returns the current coloring's distinct color count.
func (c *Colored) NumColors() int { return c.numColors }

// FullRecolors returns how many Applies fell back to a full recolor.
func (c *Colored) FullRecolors() int { return c.fullRecolors }

// Repairs returns how many Applies ran the localized repair pass.
func (c *Colored) Repairs() int { return c.repairs }

// Colors returns a copy of the maintained coloring (a copy so later
// Applies cannot race with a caller still reading the slice).
func (c *Colored) Colors() []uint32 {
	return append([]uint32(nil), c.colors...)
}

// Snapshot materializes the current graph (memoized per version).
func (c *Colored) Snapshot() (*graph.Graph, error) {
	return c.ov.Snapshot(c.opts.Procs)
}

// AdoptColors replaces the maintained coloring with an externally
// improved one — the recolor worker's adoption hook. The overlay
// version is untouched: an adoption changes which proper coloring is
// maintained, not the graph, so mutation semantics (version-keyed
// caches, WAL continuity, replication watermarks) see nothing. The
// candidate must be proper on the current graph and use STRICTLY fewer
// colors than the maintained coloring; anything else is rejected so a
// racing mutation or a buggy improvement pass can never regress
// quality. Returns how many colors the adoption saved.
func (c *Colored) AdoptColors(colors []uint32) (int, error) {
	g, err := c.ov.Snapshot(c.opts.Procs)
	if err != nil {
		return 0, err
	}
	if len(colors) != g.NumVertices() {
		return 0, fmt.Errorf("dynamic: adopt: %d colors for %d vertices", len(colors), g.NumVertices())
	}
	if err := verify.CheckProper(g, colors); err != nil {
		return 0, fmt.Errorf("dynamic: adopt: candidate coloring invalid: %v", err)
	}
	nc := verify.NumColors(colors)
	if nc >= c.numColors {
		return 0, fmt.Errorf("dynamic: adopt: candidate uses %d colors, not strictly fewer than the maintained %d", nc, c.numColors)
	}
	saved := c.numColors - nc
	c.colors = append([]uint32(nil), colors...)
	c.numColors = nc
	return saved, nil
}

// fullColor runs the static pipeline: ADG ordering, then JP.
func (c *Colored) fullColor(g *graph.Graph) ([]uint32, int) {
	ord := order.ADG(g, order.ADGOptions{
		Epsilon: c.opts.Epsilon, Procs: c.opts.Procs, Seed: c.opts.Seed, Sorted: true,
	})
	res := jp.Color(g, ord, c.opts.Procs)
	return res.Colors, res.Rounds
}

// Apply applies the batch to the graph and repairs the coloring.
//
// Properness is an invariant: a proper coloring stays proper under
// deletions, so the only possible violations are the batch's inserted
// monochromatic edges (plus new vertices, which start uncolored). Those
// endpoints form the dirty frontier; the localized pass recolors
// exactly that set under JP-ADG-style priorities computed on its
// induced subgraph, reading (never writing) the distance-1 fixed
// neighborhood. Each dirty vertex receives the smallest color unused by
// any current neighbor, so no new conflict can appear and the repaired
// coloring is proper by construction (verified before returning).
func (c *Colored) Apply(b Batch) (*Result, error) {
	diff, err := c.ov.Apply(b)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Version:      c.ov.Version(),
		AddedEdges:   len(diff.Added),
		RemovedEdges: len(diff.Removed),
		NewVertices:  diff.NewVertices,
	}
	n := c.ov.NumVertices()
	for i := 0; i < diff.NewVertices; i++ {
		c.colors = append(c.colors, 0)
	}
	p := c.opts.Procs

	// Conflict frontier, in parallel over the materialized insertions:
	// an inserted edge conflicts iff both endpoints are colored equal.
	// par.Pack keeps index order, so the frontier is deterministic.
	colors := c.colors
	conflicts := par.Pack(p, len(diff.Added), func(i int) bool {
		e := diff.Added[i]
		return colors[e.U] != 0 && colors[e.U] == colors[e.V]
	})
	res.ConflictEdges = len(conflicts)

	// Dirty set: conflict endpoints plus the new vertices.
	dirty := make([]uint32, 0, 2*len(conflicts)+diff.NewVertices)
	for _, ci := range conflicts {
		e := diff.Added[ci]
		dirty = append(dirty, e.U, e.V)
	}
	for v := n - diff.NewVertices; v < n; v++ {
		dirty = append(dirty, uint32(v))
	}
	dirty = dedupSorted(dirty)
	res.Dirty = dirty
	if len(dirty) == 0 {
		res.NumColors = c.numColors
		return res, nil
	}

	if c.opts.FallbackFraction >= 0 && float64(len(dirty)) > c.opts.FallbackFraction*float64(n) {
		if err := c.fallbackRecolor(res); err != nil {
			return nil, err
		}
	} else {
		c.repairLocal(res)
		c.repairs++
	}
	c.numColors = verify.NumColors(c.colors)
	res.NumColors = c.numColors
	if err := c.checkDirtyProper(dirty); err != nil {
		return nil, err
	}
	return res, nil
}

// fallbackRecolor recomputes the whole coloring from scratch.
func (c *Colored) fallbackRecolor(res *Result) error {
	g, err := c.ov.Snapshot(c.opts.Procs)
	if err != nil {
		return err
	}
	fresh, rounds := c.fullColor(g)
	res.Fallback = true
	res.Rounds = rounds
	res.Repaired = par.Count(c.opts.Procs, len(fresh), func(v int) bool {
		return fresh[v] != c.colors[v]
	})
	c.colors = fresh
	c.fullRecolors++
	return nil
}

// repairLocal recolors exactly res.Dirty over the overlay; see
// RepairColors for the engine itself.
func (c *Colored) repairLocal(res *Result) {
	repaired, rounds := RepairColors(c.ov, c.colors, res.Dirty, c.opts, c.ov.Version())
	res.Repaired = repaired
	res.Rounds = rounds
}

// slotPool recycles RepairColors' dense vertex→dirty-slot index
// (slot[v] = local index + 1, 0 for a vertex outside the dirty set).
// Every pooled array is all-zero; see RepairColors.
var slotPool = sync.Pool{New: func() any { return new([]int32) }}

// RepairColors recolors exactly dirty in place: JP over the
// dirty-induced subgraph under a fresh ADG ordering of that subgraph,
// with the fixed distance-1 neighborhood contributing forbidden colors.
// Writes stay inside the dirty set; reads stay inside its distance-1
// closure, so a proper coloring of the non-dirty region stays proper
// and every dirty vertex ends properly colored (each receives the
// smallest color unused by any current neighbor, with adjacent dirty
// vertices sequenced by the priority DAG).
//
// src is any adjacency source — the mutable Overlay on the mutation
// path, a plain CSR graph on the static speculate-and-repair path. The
// ADG seed is mixed with salt so successive repairs draw fresh
// tie-breaks while staying a deterministic function of (opts.Seed,
// salt, dirty, colors): the result is bit-identical at any worker
// count. dirty must be duplicate-free. It returns how many colors
// actually changed and the localized JP pass's round count.
//
// Cost: O(vol(dirty)) reads and no per-call O(n) work. One sequential
// gather pass reads each dirty vertex's merged neighborhood once and
// splits it, through a dense vertex→slot index, into the induced edge
// list and the distinct fixed-neighbor colors that can constrain its
// mex (1..deg+1); the JP rounds then read only the induced subgraph,
// the dirty vertices' new colors and that fixed-color list, with no
// per-arc hash lookup. The index is an n-entry array recycled through
// slotPool, whose invariant is that every pooled array is all-zero
// between calls: a call sets only its dirty entries and clears exactly
// those before handing the array back, so it neither allocates nor
// clears O(n) once the pool is warm.
func RepairColors(src Source, colors []uint32, dirty []uint32, opts Options, salt uint64) (repaired, rounds int) {
	opts = opts.withDefaults()
	p := opts.Procs
	nd := len(dirty)

	sp := slotPool.Get().(*[]int32)
	if n := src.NumVertices(); len(*sp) < n {
		*sp = make([]int32, n)
	}
	slot := *sp
	for i, v := range dirty {
		slot[v] = int32(i) + 1
	}
	deg := make([]int, nd)
	fixOff := make([]int, nd+1)
	// seen[c] == i+1 marks color c as already listed for dirty vertex i.
	var fixed, buf, seen []uint32
	var localEdges []graph.Edge
	maxDeg := 0
	for i, v := range dirty {
		buf = src.AppendNeighbors(buf[:0], v)
		d := len(buf)
		deg[i] = d
		if d > maxDeg {
			maxDeg = d
		}
		if len(seen) < d+2 {
			seen = make([]uint32, d+2)
		}
		tag := uint32(i) + 1
		for _, u := range buf {
			if j := slot[u] - 1; j < 0 {
				if cu := colors[u]; cu != 0 && int(cu) <= d+1 && seen[cu] != tag {
					seen[cu] = tag
					fixed = append(fixed, cu)
				}
			} else if int32(i) < j {
				localEdges = append(localEdges, graph.Edge{U: uint32(i), V: uint32(j)})
			}
		}
		fixOff[i+1] = len(fixed)
	}
	for _, v := range dirty {
		slot[v] = 0
	}
	slotPool.Put(sp)

	// The induced subgraph is tiny (bounded by the batch or conflict
	// set); FromEdges cannot fail here — ids are local indices by
	// construction.
	sub, err := graph.FromEdges(nd, localEdges, p)
	if err != nil {
		panic(fmt.Sprintf("dynamic: induced subgraph: %v", err))
	}
	// JP-ADG-style priorities on the dirty region.
	ord := order.ADG(sub, order.ADGOptions{
		Epsilon: opts.Epsilon, Procs: p, Seed: opts.Seed + salt, Sorted: true,
	})
	keys := ord.Keys
	counts := order.PredCounts(sub, keys, p)
	frontier := par.Pack(p, nd, func(i int) bool { return counts[i] == 0 })

	newCol := make([]uint32, nd)
	type workerState struct {
		stamp []uint64
		epoch uint64
		next  []uint32
	}
	states := make([]*workerState, p)
	for w := range states {
		states[w] = &workerState{stamp: make([]uint64, maxDeg+2)}
	}
	nextCounts := make([]int32, p)
	nextOffs := make([]int64, p+1)
	for len(frontier) > 0 {
		rounds++
		fr := frontier
		par.ForWorkers(p, len(fr), func(w, lo, hi int) {
			st := states[w]
			for fi := lo; fi < hi; fi++ {
				i := fr[fi]
				st.epoch++
				for _, cu := range fixed[fixOff[i]:fixOff[i+1]] {
					st.stamp[cu] = st.epoch
				}
				ns := sub.Neighbors(i)
				d := deg[i]
				for _, j := range ns {
					// 0 until that dirty neighbor is colored.
					if cu := newCol[j]; cu != 0 && int(cu) <= d+1 {
						st.stamp[cu] = st.epoch
					}
				}
				nc := uint32(1)
				for st.stamp[nc] == st.epoch {
					nc++
				}
				newCol[i] = nc
				ki := keys[i]
				for _, j := range ns {
					if keys[j] < ki && par.Join(&counts[j]) {
						st.next = append(st.next, j)
					}
				}
			}
		})
		// Deterministic frontier compaction in worker order (the same
		// scheme as jp.ColorContext).
		for w, st := range states {
			nextCounts[w] = int32(len(st.next))
		}
		total := par.PrefixSumInt32(1, nextCounts, nextOffs)
		nf := make([]uint32, total)
		for w, st := range states {
			copy(nf[nextOffs[w]:nextOffs[w+1]], st.next)
			st.next = st.next[:0]
		}
		frontier = nf
	}

	for i, v := range dirty {
		if colors[v] != newCol[i] {
			colors[v] = newCol[i]
			repaired++
		}
	}
	return repaired, rounds
}

// checkDirtyProper asserts the repair invariant on the region it could
// have broken: every dirty vertex is colored and differs from all of
// its merged neighbors. O(vol(dirty)) — cheap enough to always run.
func (c *Colored) checkDirtyProper(dirty []uint32) error {
	var buf []uint32
	for _, v := range dirty {
		if c.colors[v] == 0 {
			return fmt.Errorf("dynamic: vertex %d left uncolored by repair", v)
		}
		buf = c.ov.AppendNeighbors(buf[:0], v)
		for _, u := range buf {
			if c.colors[u] == c.colors[v] {
				return fmt.Errorf("dynamic: repair left edge (%d,%d) monochromatic with color %d", v, u, c.colors[v])
			}
		}
	}
	return nil
}

// dedupSorted sorts s and removes duplicates in place.
func dedupSorted(s []uint32) []uint32 {
	if len(s) < 2 {
		return s
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}
