// Package service is the serving layer of the reproduction: a long-lived
// process that loads graphs once into shared immutable CSR, runs coloring
// requests on a bounded worker budget over the process-wide persistent
// fork-join pool (internal/par), caches results — sound because every
// algorithm is Las Vegas and, for a fixed seed, scheduling-independent —
// and exposes the whole thing over an HTTP JSON API (cmd/colord).
//
// The package splits into four pieces:
//
//   - Registry: named immutable graphs, built from generator specs
//     ("kron:13") or uploaded edge-list/DIMACS/MatrixMarket payloads;
//   - Cache: the deterministic result cache keyed by
//     (graph, algorithm, seed, epsilon) with LRU eviction;
//   - Manager: the job manager enforcing the max-inflight budget and
//     per-request deadlines via context cancellation (the cooperative
//     checks live in the JP/ADG/DEC round loops);
//   - Server: the HTTP handlers (POST /v1/graphs, POST /v1/color,
//     GET /v1/graphs, GET /healthz, GET /metrics).
package service

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
)

// GraphEntry is one registered graph. The base CSR is immutable after
// registration: concurrent coloring requests share it without copies.
// Mutation batches (POST /v1/graphs/{id}/mutate) layer a dynamic
// overlay on top; coloring requests then run against an immutable
// per-version snapshot, so the sharing story is unchanged — only the
// (graph, version) pair a request sees advances.
type GraphEntry struct {
	// Name is the registry key.
	Name string
	// Spec records how the graph was built: a generator spec ("kron:12")
	// or "upload:<format>" for uploaded payloads. Spec-built graphs are
	// reproducible anywhere from the spec string alone, which is what
	// lets cmd/colorload verify returned colorings client-side (replaying
	// its mutation log on top for mutated graphs).
	Spec string
	// G is the base CSR as registered (immutable, version 0).
	G *graph.Graph

	// mu serializes mutations and guards the fields below. Coloring
	// requests only hold it long enough to grab the current snapshot.
	mu sync.Mutex
	// compacting marks a running compaction of this entry (triggered
	// by the WAL size threshold, degraded persistence, an adoption or
	// /v1/admin/compact); compactRerun is a trigger that arrived while
	// one ran and asks it to fold once more (see compactGraph).
	compacting   atomic.Bool
	compactRerun atomic.Bool
	// persistBroken marks degraded durability: a WAL append failed (or
	// a version gap was detected), so further appends are skipped until
	// a compaction folds the in-memory state into a fresh snapshot.
	persistBroken atomic.Bool
	// qualityGen counts quality adoptions (recolor improvements swapped
	// into the maintained coloring WITHOUT a version bump — the graph
	// didn't change, only the coloring got better). snapQualityGen is
	// the generation the store's snapshot captured: the mmapped
	// zero-copy read path and compaction's nothing-to-fold check both
	// require snapVersion == version AND snapQualityGen == qualityGen,
	// so an adoption at an unchanged version invalidates the snapshot
	// exactly like a mutation would.
	qualityGen     atomic.Uint64
	snapQualityGen atomic.Uint64
	// dyn is the mutable overlay + maintained coloring, nil until the
	// first mutation (the common static case pays nothing).
	dyn *dynamic.Colored
	// lastBatchHash fingerprints the newest applied batch (see
	// batchHash): carried on the replication stream so a replica can
	// detect a forked version chain. 0 means unknown (fresh graph, or
	// recovered from a compacted snapshot with an empty WAL).
	lastBatchHash uint64
	// syncedEpoch is the cluster epoch this node last verified it was
	// caught up on this graph for (see Server.ensureSynced); writes
	// re-verify after every membership transition.
	syncedEpoch uint64
	// stats is the structural summary of statsVer; recomputed lazily
	// when the version moved.
	stats    graph.Stats
	statsVer uint64
}

// Registry holds named graphs loaded once and shared by every request.
type Registry struct {
	mu     sync.RWMutex
	graphs map[string]*GraphEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{graphs: make(map[string]*GraphEntry)}
}

// Add registers g under name. Registering the same name twice is an
// error unless the spec strings match (idempotent re-registration: load
// generators race-free from many clients).
func (r *Registry) Add(name, spec string, g *graph.Graph) (*GraphEntry, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: graph name must be non-empty", ErrBadRequest)
	}
	// Cap the name so the store's hex-encoded directory name (2 bytes
	// per rune + prefix) always fits a 255-byte filesystem component —
	// an over-long name must 400 here, not strand an upload memory-only
	// because MkdirAll failed with ENAMETOOLONG at persist time.
	if len(name) > maxGraphNameLen {
		return nil, fmt.Errorf("%w: graph name exceeds %d bytes", ErrBadRequest, maxGraphNameLen)
	}
	// Stats scan the whole graph — do it before taking the lock so a
	// large registration cannot stall concurrent Get calls.
	stats := graph.ComputeStats(g)
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, err := r.checkExistingLocked(name, spec); err != nil || old != nil {
		return old, err
	}
	e := &GraphEntry{Name: name, Spec: spec, G: g, stats: stats}
	r.graphs[name] = e
	return e, nil
}

// Stats returns the structural summary of the entry's current version,
// recomputing it lazily after mutations.
func (e *GraphEntry) Stats() graph.Stats {
	st, _ := e.StatsVersion()
	return st
}

// StatsVersion returns the structural summary together with the
// version it describes, as one consistent pair (a single critical
// section — pairing separate Stats() and Version() calls would let a
// concurrent mutation slip between them and mismatch shape and
// version). On a snapshot failure the previous consistent pair is
// returned rather than a mixed one.
func (e *GraphEntry) StatsVersion() (graph.Stats, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dyn != nil && e.statsVer != e.dyn.Version() {
		g, err := e.dyn.Snapshot()
		if err == nil {
			e.stats = graph.ComputeStats(g)
			e.statsVer = e.dyn.Version()
		}
	}
	return e.stats, e.statsVer
}

// View returns the immutable graph snapshot coloring requests should
// run against, together with its version. For a never-mutated entry
// this is the base CSR at version 0 and costs nothing; after mutations
// it is the overlay's memoized per-version snapshot.
func (e *GraphEntry) View() (*graph.Graph, uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dyn == nil {
		return e.G, 0, nil
	}
	g, err := e.dyn.Snapshot()
	return g, e.dyn.Version(), err
}

// MaintainedColors returns a copy of the maintained dynamic coloring
// with its distinct color count and version, as one consistent triple.
// ok is false when the entry was never mutated (no maintained coloring
// exists yet — the base graph serves static requests only).
func (e *GraphEntry) MaintainedColors() (colors []uint32, numColors int, version uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dyn == nil {
		return nil, 0, 0, false
	}
	return e.dyn.Colors(), e.dyn.NumColors(), e.dyn.Version(), true
}

// Version returns the entry's current mutation version.
func (e *GraphEntry) Version() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.version()
}

// version is Version for a caller that holds e.mu.
func (e *GraphEntry) version() uint64 {
	if e.dyn == nil {
		return 0
	}
	return e.dyn.Version()
}

// CheckExisting resolves name against the registry without building
// anything: (entry, nil) when name is already registered with the same
// reproducible generator spec (idempotent success), (nil, ErrConflict)
// when the name is taken otherwise, (nil, nil) when the name is free.
// It is the single source of the collision rule — Add enforces the same
// one, so a pre-check and the eventual Add can never disagree.
func (r *Registry) CheckExisting(name, spec string) (*GraphEntry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.checkExistingLocked(name, spec)
}

func (r *Registry) checkExistingLocked(name, spec string) (*GraphEntry, error) {
	old, ok := r.graphs[name]
	if !ok {
		return nil, nil
	}
	// Idempotent only for real generator specs: upload: payloads have no
	// identity beyond their bytes, which are not retained.
	if spec != "" && old.Spec == spec && !strings.HasPrefix(spec, "upload:") {
		return old, nil
	}
	return nil, fmt.Errorf("%w: graph %q already registered (spec %q)", ErrConflict, name, old.Spec)
}

// Get returns the entry for name.
func (r *Registry) Get(name string) (*GraphEntry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.graphs[name]
	if !ok {
		return nil, fmt.Errorf("%w: graph %q not registered", ErrNotFound, name)
	}
	return e, nil
}

// List returns all entries sorted by name.
func (r *Registry) List() []*GraphEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*GraphEntry, 0, len(r.graphs))
	for _, e := range r.graphs {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.graphs)
}

// maxSpecScale / maxSpecEdges cap generator sizes a request can ask
// for, so one bad upload cannot OOM the server: both the vertex count
// AND the requested edge count are bounded (an er:2:10^12 spec with a
// tiny n would otherwise still allocate terabytes of edge buffer).
const (
	maxSpecScale = 22
	maxSpecEdges = int64(1) << 27 // ~128M edges ≈ 1 GB of edge list
	// maxGraphNameLen bounds registry names; see Registry.Add.
	maxGraphNameLen = 120
)

// BuildSpec builds a graph from a generator spec string. Specs are fully
// deterministic — the same string builds the identical graph on any
// machine — which makes server-side caching and client-side verification
// line up. Supported forms (all parameters integral):
//
//	kron:scale[:edgeFactor[:seed]]   Kronecker/RMAT, default ef 16 seed 1
//	er:n:m[:seed]                    Erdős–Rényi G(n,m), default seed 1
//	ba:n:k[:seed]                    Barabási–Albert, default seed 1
//	ws:n:k[:betaPct[:seed]]          Watts–Strogatz, default beta 10% seed 1
//	grid:rows:cols                   2D lattice
//	community:n:k[:seed]             planted partition, pIn 0.15, mOut 4n
func BuildSpec(spec string) (*graph.Graph, error) {
	fields := strings.Split(spec, ":")
	kind := fields[0]
	args := fields[1:]
	argN := func(i int, def int64) (int64, error) {
		if i >= len(args) {
			return def, nil
		}
		v, err := strconv.ParseInt(args[i], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%w: spec %q: bad integer %q", ErrBadRequest, spec, args[i])
		}
		return v, nil
	}
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("%w: spec %q: need at least %d parameters", ErrBadRequest, spec, n)
		}
		return nil
	}
	var bad error
	num := func(i int, def int64) int64 {
		v, err := argN(i, def)
		if err != nil && bad == nil {
			bad = err
		}
		return v
	}
	badEdges := func(m int64) error {
		if m < 0 || m > maxSpecEdges {
			return fmt.Errorf("%w: spec %q: edge count must be in [0, %d]", ErrBadRequest, spec, maxSpecEdges)
		}
		return nil
	}
	switch kind {
	case "kron":
		if err := need(1); err != nil {
			return nil, err
		}
		scale, ef, seed := num(0, 0), num(1, 16), num(2, 1)
		if bad != nil {
			return nil, bad
		}
		if scale < 1 || scale > maxSpecScale {
			return nil, fmt.Errorf("%w: spec %q: scale must be in [1, %d]", ErrBadRequest, spec, maxSpecScale)
		}
		if ef < 1 || ef > maxSpecEdges>>scale {
			return nil, fmt.Errorf("%w: spec %q: edge factor must be in [1, %d]", ErrBadRequest, spec, maxSpecEdges>>scale)
		}
		return gen.Kronecker(int(scale), int(ef), uint64(seed), 0)
	case "er":
		if err := need(2); err != nil {
			return nil, err
		}
		n, m, seed := num(0, 0), num(1, 0), num(2, 1)
		if bad != nil {
			return nil, bad
		}
		if n < 1 || n > 1<<maxSpecScale {
			return nil, fmt.Errorf("%w: spec %q: n must be in [1, 2^%d]", ErrBadRequest, spec, maxSpecScale)
		}
		if err := badEdges(m); err != nil {
			return nil, err
		}
		return gen.ErdosRenyiGNM(int(n), m, uint64(seed), 0)
	case "ba":
		if err := need(2); err != nil {
			return nil, err
		}
		n, k, seed := num(0, 0), num(1, 0), num(2, 1)
		if bad != nil {
			return nil, bad
		}
		if n < 1 || n > 1<<maxSpecScale {
			return nil, fmt.Errorf("%w: spec %q: n must be in [1, 2^%d]", ErrBadRequest, spec, maxSpecScale)
		}
		if k < 0 || k > 1<<maxSpecScale || n*k > maxSpecEdges {
			return nil, fmt.Errorf("%w: spec %q: need k >= 0 and n*k <= %d", ErrBadRequest, spec, maxSpecEdges)
		}
		return gen.BarabasiAlbert(int(n), int(k), uint64(seed), 0)
	case "grid":
		if err := need(2); err != nil {
			return nil, err
		}
		rows, cols := num(0, 0), num(1, 0)
		if bad != nil {
			return nil, bad
		}
		// Bound each side before multiplying so rows*cols cannot
		// overflow int64 past the product guard.
		if rows < 1 || cols < 1 || rows > 1<<maxSpecScale || cols > 1<<maxSpecScale || rows*cols > 1<<maxSpecScale {
			return nil, fmt.Errorf("%w: spec %q: rows*cols must be in [1, 2^%d]", ErrBadRequest, spec, maxSpecScale)
		}
		return gen.Grid2D(int(rows), int(cols), 0)
	case "ws":
		// ws:n:k[:betaPct[:seed]] — Watts–Strogatz ring lattice, k even
		// neighbors per vertex, each lattice edge rewired with
		// probability betaPct/100 (default 10%).
		if err := need(2); err != nil {
			return nil, err
		}
		n, k, betaPct, seed := num(0, 0), num(1, 0), num(2, 10), num(3, 1)
		if bad != nil {
			return nil, bad
		}
		if n < 1 || n > 1<<maxSpecScale {
			return nil, fmt.Errorf("%w: spec %q: n must be in [1, 2^%d]", ErrBadRequest, spec, maxSpecScale)
		}
		if k < 0 || k%2 != 0 || n*k/2 > maxSpecEdges {
			return nil, fmt.Errorf("%w: spec %q: need even k >= 0 and n*k/2 <= %d", ErrBadRequest, spec, maxSpecEdges)
		}
		if betaPct < 0 || betaPct > 100 {
			return nil, fmt.Errorf("%w: spec %q: betaPct must be in [0, 100]", ErrBadRequest, spec)
		}
		return gen.WattsStrogatz(int(n), int(k), float64(betaPct)/100, uint64(seed), 0)
	case "community":
		if err := need(2); err != nil {
			return nil, err
		}
		n, k, seed := num(0, 0), num(1, 0), num(2, 1)
		if bad != nil {
			return nil, bad
		}
		if n < 1 || n > 1<<maxSpecScale {
			return nil, fmt.Errorf("%w: spec %q: n must be in [1, 2^%d]", ErrBadRequest, spec, maxSpecScale)
		}
		if k < 1 || k > n {
			return nil, fmt.Errorf("%w: spec %q: need 1 <= k <= n", ErrBadRequest, spec)
		}
		return gen.Community(int(n), int(k), 0.15, 4*n, uint64(seed), 0)
	default:
		return nil, fmt.Errorf("%w: unknown generator %q (want kron|er|ba|ws|grid|community)", ErrBadRequest, kind)
	}
}
