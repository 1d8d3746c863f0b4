package dynamic

import (
	"context"
	"fmt"
	"slices"
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
//
// The color count is maintained, not recounted: counts holds the number
// of vertices of each color, rebuilt in O(n) only where the whole
// coloring is replaced (NewColored, RestoreColored, AdoptColors and a
// fallback recolor) and otherwise updated over the vertices a repair
// recolored. With the overlay's per-vertex index, one Apply therefore
// costs O(batch · log deg + vol(dirty)) and no O(n) term.
type Colored struct {
	ov     *Overlay
	opts   Options
	colors []uint32
	counts colorCounts

	repairs      int
	fullRecolors int
}

// NewColored builds the initial coloring of base with a full JP-ADG
// run and wraps it for incremental maintenance.
func NewColored(base *graph.Graph, opts Options) *Colored {
	c := &Colored{ov: NewOverlay(base), opts: opts.withDefaults()}
	colors, _ := c.fullColor(base)
	c.colors = colors
	c.counts = countColors(colors)
	return c
}

// Overlay exposes the underlying mutable graph (read-only use).
func (c *Colored) Overlay() *Overlay { return c.ov }

// Version returns the overlay version.
func (c *Colored) Version() uint64 { return c.ov.Version() }

// NumColors returns the current coloring's distinct color count.
func (c *Colored) NumColors() int { return c.counts.distinct }

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
	counts := countColors(colors)
	if counts.distinct >= c.counts.distinct {
		return 0, fmt.Errorf("dynamic: adopt: candidate uses %d colors, not strictly fewer than the maintained %d", counts.distinct, c.counts.distinct)
	}
	saved := c.counts.distinct - counts.distinct
	c.colors = append([]uint32(nil), colors...)
	c.counts = counts
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
		res.NumColors = c.NumColors()
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
	res.NumColors = c.NumColors()
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
	c.counts = countColors(fresh)
	c.fullRecolors++
	return nil
}

// repairLocal recolors exactly res.Dirty over the overlay (see
// RepairColors for the engine itself) and moves each recolored vertex
// between the per-color counts.
func (c *Colored) repairLocal(res *Result) {
	old := make([]uint32, len(res.Dirty))
	for i, v := range res.Dirty {
		old[i] = c.colors[v]
	}
	repaired, rounds := RepairColors(c.ov, c.colors, res.Dirty, c.opts, c.ov.Version())
	for i, v := range res.Dirty {
		if c.colors[v] != old[i] {
			c.counts.add(old[i], -1)
			c.counts.add(c.colors[v], 1)
		}
	}
	res.Repaired = repaired
	res.Rounds = rounds
}

// denseColors bounds colorCounts' slice: colors below it are counted
// there, in at most 512 KiB. Every color this package hands out is a
// mex over a neighborhood, at most deg+1, so only an adopted coloring
// carries larger ones (any uint32 value), and those go to a map.
const denseColors = 1 << 16

// colorCounts counts the vertices of each color, so the number of
// distinct colors follows a recoloring at O(1) per recolored vertex
// and no color value ever sizes an array.
type colorCounts struct {
	dense    []int
	big      map[uint32]int
	distinct int
}

// countColors counts a whole coloring in O(n).
func countColors(colors []uint32) colorCounts {
	var cc colorCounts
	for _, col := range colors {
		cc.add(col, 1)
	}
	return cc
}

// add adds delta to the count of color col; color 0 (uncolored) is not
// counted.
func (cc *colorCounts) add(col uint32, delta int) {
	var k int
	switch {
	case col == 0:
		return
	case col < denseColors:
		if int(col) >= len(cc.dense) {
			cc.dense = append(cc.dense, make([]int, int(col)+1-len(cc.dense))...)
		}
		cc.dense[col] += delta
		k = cc.dense[col]
	default:
		if cc.big == nil {
			cc.big = map[uint32]int{}
		}
		cc.big[col] += delta
		if k = cc.big[col]; k == 0 {
			delete(cc.big, col)
		}
	}
	switch {
	case delta > 0 && k == delta:
		cc.distinct++
	case delta < 0 && k == 0:
		cc.distinct--
	}
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
// src is any adjacency source: the mutable Overlay on the mutation
// path, or a plain CSR graph in tests. The region's ADG seed is
// opts.Seed+salt, and the result is a deterministic function of
// (opts.Seed, salt, dirty, colors), bit-identical at any worker count.
// The repair orders by ADG-O, whose key is a vertex's unique position,
// so the seed's tie-break permutation never decides the order: neither
// seed nor salt changes the colors today. dirty must be duplicate-free.
// It returns how many colors actually changed and the localized JP
// pass's round count.
//
// Cost: O(vol(dirty)) reads and no per-call O(n) work. One sequential
// gather pass reads each dirty vertex's merged neighborhood once and
// splits it, through a dense vertex→slot index, into the Region's
// local lists and the distinct fixed-neighbor colors that can
// constrain its mex (1..deg+1); RepairRegion then reads only those.
// The index is an n-entry array recycled through slotPool, whose
// invariant is that every pooled array is all-zero between calls: a
// call sets only its dirty entries and clears exactly those before
// handing the array back, so it neither allocates nor clears O(n) once
// the pool is warm.
func RepairColors(src Source, colors []uint32, dirty []uint32, opts Options, salt uint64) (repaired, rounds int) {
	nd := len(dirty)
	sp := slotPool.Get().(*[]int32)
	if n := src.NumVertices(); len(*sp) < n {
		*sp = make([]int32, n)
	}
	slot := *sp
	for i, v := range dirty {
		slot[v] = int32(i) + 1
	}
	r := Region{Dirty: dirty, LocalOff: make([]int, nd+1), FixedOff: make([]int, nd+1)}
	// seen[c] == i+1 marks color c as already listed for dirty vertex i.
	var buf, seen []uint32
	for i, v := range dirty {
		buf = src.AppendNeighbors(buf[:0], v)
		d := len(buf)
		if len(seen) < d+2 {
			seen = make([]uint32, d+2)
		}
		tag := uint32(i) + 1
		for _, u := range buf {
			if j := slot[u]; j == 0 {
				if cu := colors[u]; cu != 0 && int(cu) <= d+1 && seen[cu] != tag {
					seen[cu] = tag
					r.Fixed = append(r.Fixed, cu)
				}
			} else {
				r.Local = append(r.Local, uint32(j-1))
			}
		}
		r.LocalOff[i+1] = len(r.Local)
		r.FixedOff[i+1] = len(r.Fixed)
	}
	for _, v := range dirty {
		slot[v] = 0
	}
	slotPool.Put(sp)
	return RepairRegion(colors, &r, opts, salt)
}

// Region is a repair region in local indices: dirty vertex Dirty[i] is
// local vertex i. Both lists of a vertex may hold their entries in any
// order.
type Region struct {
	Dirty []uint32
	// Local[LocalOff[i]:LocalOff[i+1]] are the local indices of i's
	// neighbors inside the region, each once. The lists are symmetric:
	// j is in i's list exactly when i is in j's.
	LocalOff []int
	Local    []uint32
	// Fixed[FixedOff[i]:FixedOff[i+1]] are colors that neighbors of i
	// outside the region hold, repeats allowed. A color above
	// deg(Dirty[i])+1 may be left out: it cannot constrain i's mex.
	FixedOff []int
	Fixed    []uint32
}

// RepairRegion colors r.Dirty in place, reading nothing but r: JP over
// the region's induced subgraph under a fresh ADG ordering of it (seed
// opts.Seed+salt), each vertex avoiding its fixed colors and the colors
// of its earlier-colored region neighbors. RepairColors gathers a
// region from an adjacency source; SPEC-ADG builds one per chunk from
// the lists its sweep kept. It returns how many colors changed and the
// JP round count, both deterministic at any worker count.
func RepairRegion(colors []uint32, r *Region, opts Options, salt uint64) (repaired, rounds int) {
	opts = opts.withDefaults()
	p := opts.Procs
	nd := len(r.Dirty)

	// The induced CSR is the transpose of the local lists: visiting the
	// rows in order appends i to the row of each of its neighbors, so
	// every row comes out sorted by local index, as graph.FromEdges
	// would sort it, with no edge list and no sort.
	offsets := make([]int64, nd+1)
	for _, j := range r.Local {
		offsets[j+1]++
	}
	for i := 0; i < nd; i++ {
		offsets[i+1] += offsets[i]
	}
	adj := make([]uint32, len(r.Local))
	cursor := slices.Clone(offsets[:nd])
	for i := 0; i < nd; i++ {
		for _, j := range r.Local[r.LocalOff[i]:r.LocalOff[i+1]] {
			adj[cursor[j]] = uint32(i)
			cursor[j]++
		}
	}
	sub, err := graph.FromCSR(offsets, adj)
	if err != nil {
		panic(fmt.Sprintf("dynamic: repair region: %v", err))
	}
	// JP-ADG-style priorities on the dirty region, colored by the one JP
	// loop with the fixed colors as each vertex's outside neighbors.
	ord := order.ADG(sub, order.ADGOptions{
		Epsilon: opts.Epsilon, Procs: p, Seed: opts.Seed + salt, Sorted: true,
	})
	// RepairRegion takes no context; ColorFixed's only error is the
	// context's, which TODO never returns.
	jr, _ := jp.ColorFixed(context.TODO(), sub, ord, p, r.FixedOff, r.Fixed)
	for i, v := range r.Dirty {
		if colors[v] != jr.Colors[i] {
			colors[v] = jr.Colors[i]
			repaired++
		}
	}
	return repaired, jr.Rounds
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
	slices.Sort(s)
	return slices.Compact(s)
}
