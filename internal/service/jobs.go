package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/obs"
)

// ManagerConfig parameterizes a Manager.
type ManagerConfig struct {
	// MaxInflight bounds concurrently executing coloring runs. Requests
	// beyond the budget queue on the slot semaphore (still cancellable
	// while queued). <= 0 defaults to GOMAXPROCS: every run already
	// parallelizes internally over the shared par.Pool, so more inflight
	// runs than cores only adds contention, not throughput.
	MaxInflight int
	// CacheEntries is the LRU result-cache capacity (<= 0 disables).
	CacheEntries int
	// DefaultTimeout is the per-request deadline applied when the request
	// does not carry its own; 0 means no server-side deadline.
	DefaultTimeout time.Duration
}

// ColorRequest is one coloring job. The zero value of Epsilon selects
// the paper's evaluation setting (0.01); Procs <= 0 selects GOMAXPROCS.
type ColorRequest struct {
	Graph     string  `json:"graph"`
	Algorithm string  `json:"algorithm"`
	Seed      uint64  `json:"seed"`
	Epsilon   float64 `json:"epsilon"`
	// Procs only changes run latency, never the result (Las Vegas
	// determinism) — hence it is not part of the cache key.
	Procs int `json:"procs"`
	// TimeoutMillis overrides the server's default per-request deadline.
	TimeoutMillis int `json:"timeoutMillis"`
	// IncludeColors asks for the full color array in the response
	// (needed by clients that verify; large for big graphs).
	IncludeColors bool `json:"includeColors"`
	// NoCache forces a fresh computation and skips cache insertion.
	NoCache bool `json:"noCache"`
}

// ColorResponse reports one coloring job.
type ColorResponse struct {
	Graph string `json:"graph"`
	// GraphVersion is the mutation version of the graph this coloring
	// was computed against (0 for never-mutated graphs). Clients that
	// replay their own mutation log (cmd/colorload) use it to pick the
	// replica to verify against.
	GraphVersion uint64  `json:"graphVersion"`
	Algorithm    string  `json:"algorithm"`
	Seed         uint64  `json:"seed"`
	Epsilon      float64 `json:"epsilon"`
	NumColors    int     `json:"numColors"`
	Rounds       int     `json:"rounds"`
	// Colors is present only when the request set includeColors.
	Colors []uint32 `json:"colors,omitempty"`
	// Verified is always true on a 200: every run goes through
	// harness.RunChecked and cached entries were verified when computed.
	Verified bool `json:"verified"`
	// Deterministic reports whether the algorithm carries the strong
	// determinism guarantee (equal (graph, algorithm, seed, epsilon) ⇒
	// identical coloring). Non-deterministic schemes are never cached or
	// coalesced.
	Deterministic bool `json:"deterministic"`
	// Cached reports a cache hit; Coalesced reports the request waited on
	// an identical in-flight computation instead of running its own.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced"`
	// ComputeSeconds is the cost of the run that produced the coloring
	// (the original run's, when Cached or Coalesced).
	ComputeSeconds float64 `json:"computeSeconds"`
}

// maxRequestProcs bounds the per-request worker count: large enough for
// any real machine, small enough that the per-worker scratch arrays a
// request implies cannot be used as an allocation bomb.
const maxRequestProcs = 1024

// flight is one in-progress computation identical requests wait on.
type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// ManagerStats is the /metrics view of the job manager.
type ManagerStats struct {
	MaxInflight int   `json:"maxInflight"`
	Inflight    int   `json:"inflight"`
	Completed   int64 `json:"completed"`
	Cancelled   int64 `json:"cancelled"`
	Failed      int64 `json:"failed"`
	Coalesced   int64 `json:"coalesced"`
}

// Manager runs coloring jobs: bounded inflight budget, per-request
// deadlines, result caching and single-flight coalescing of identical
// concurrent requests (sound for the same reason caching is — equal keys
// produce equal colorings).
type Manager struct {
	reg            *Registry
	cache          *Cache
	sem            chan struct{}
	defaultTimeout time.Duration

	sfMu sync.Mutex
	sf   map[Key]*flight

	// met is set by NewServer; a Manager built directly (tests) has
	// none, and every observation below is nil-safe.
	met *serverMetrics

	completed atomic.Int64
	cancelled atomic.Int64
	failed    atomic.Int64
	coalesced atomic.Int64
}

// NewManager returns a Manager over reg.
func NewManager(reg *Registry, cfg ManagerConfig) *Manager {
	max := cfg.MaxInflight
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}
	return &Manager{
		reg:            reg,
		cache:          NewCache(cfg.CacheEntries),
		sem:            make(chan struct{}, max),
		defaultTimeout: cfg.DefaultTimeout,
		sf:             make(map[Key]*flight),
	}
}

// Cache exposes the result cache (for /metrics).
func (m *Manager) Cache() *Cache { return m.cache }

// acquireSlot takes one inflight slot, staying cancellable while
// queued. Mutations share the same budget as coloring runs — a repair
// (worst case the lazy initial coloring or a fallback full recolor) is
// pool-bound compute like any /v1/color job, and must not be able to
// oversubscribe the machine just by arriving on a different endpoint.
func (m *Manager) acquireSlot(ctx context.Context) error {
	queued := time.Now()
	select {
	case m.sem <- struct{}{}:
		m.observeQueueWait(ctx, queued)
		return nil
	case <-ctx.Done():
		m.cancelled.Add(1)
		return fmt.Errorf("%w: %v", ErrCancelled, ctx.Err())
	}
}

// observeQueueWait records time spent queued for an inflight slot,
// both in the histogram and as a span on the request trace.
func (m *Manager) observeQueueWait(ctx context.Context, queued time.Time) {
	wait := time.Since(queued)
	if m.met != nil {
		m.met.jobQueueWait.Observe(wait)
	}
	obs.TraceFrom(ctx).AddSpan("queue-wait", wait.Seconds())
}

func (m *Manager) releaseSlot() { <-m.sem }

// Stats snapshots the job counters.
func (m *Manager) Stats() ManagerStats {
	return ManagerStats{
		MaxInflight: cap(m.sem),
		Inflight:    len(m.sem),
		Completed:   m.completed.Load(),
		Cancelled:   m.cancelled.Load(),
		Failed:      m.failed.Load(),
		Coalesced:   m.coalesced.Load(),
	}
}

// resolved is what a request resolves to against the registry: the
// pinned snapshot, the registered algorithm and the versioned cache
// key.
type resolved struct {
	g    *graph.Graph
	algo harness.Algorithm
	key  Key
}

// resolve normalizes req in place (the ε default, NoCache for the
// non-deterministic schemes) and fills r, for Color and ColorCached.
// It pins the (snapshot, version) pair once, before cache lookup and
// single-flight: the whole request is then served against this one
// immutable graph, and the versioned cache key guarantees a concurrent
// mutation can never leak a stale coloring into a request that reads
// the newer version.
func (m *Manager) resolve(req *ColorRequest, r *resolved) error {
	entry, err := m.reg.Get(req.Graph)
	if err != nil {
		return err
	}
	var version uint64
	if r.g, version, err = entry.View(); err != nil {
		return err
	}
	if r.algo, err = harness.Lookup(req.Algorithm); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if req.Epsilon == 0 {
		req.Epsilon = 0.01
	}
	// !(>= 0) rather than < 0: NaN must be rejected too — as a map key
	// it never equals itself, so it would leak single-flight entries.
	if !(req.Epsilon >= 0) {
		return fmt.Errorf("%w: epsilon must be >= 0", ErrBadRequest)
	}
	// Procs reaches per-worker allocations (JP's scratch arrays) before
	// the par pool's clamping, so an untrusted request must not pick it
	// freely — beyond maxRequestProcs it only wastes memory anyway.
	if req.Procs < 0 || req.Procs > maxRequestProcs {
		return fmt.Errorf("%w: procs must be in [0, %d]", ErrBadRequest, maxRequestProcs)
	}
	// Caching and coalescing are sound only for the strongly
	// deterministic schemes (equal key ⇒ bit-identical coloring); the
	// rest (JP-ASL, ITRB, GM) always compute fresh — their results are
	// proper but may differ across runs or worker counts.
	if !r.algo.Deterministic {
		req.NoCache = true
	}
	r.key = Key{Graph: req.Graph, Version: version, Algorithm: r.algo.Name, Seed: req.Seed, Epsilon: req.Epsilon}
	return nil
}

// response builds the reply to the resolved request from the coloring e.
func (r *resolved) response(req *ColorRequest, e *Entry, cached, coalesced bool) *ColorResponse {
	resp := &ColorResponse{
		Graph:          req.Graph,
		GraphVersion:   r.key.Version,
		Algorithm:      r.algo.Name,
		Seed:           req.Seed,
		Epsilon:        req.Epsilon,
		NumColors:      e.NumColors,
		Rounds:         e.Rounds,
		Verified:       true,
		Deterministic:  r.algo.Deterministic,
		Cached:         cached,
		Coalesced:      coalesced,
		ComputeSeconds: e.ComputeSeconds,
	}
	if req.IncludeColors {
		resp.Colors = e.Colors
	}
	return resp
}

// Color executes req, consulting the cache first and coalescing with an
// identical in-flight request if one exists. Cancelling ctx (client gone
// or deadline hit) frees the worker slot within one algorithm round for
// the JP-*, DEC-* and ADG-based schemes — the cooperative checks
// threaded through their round loops — and immediately while still
// queued for a slot. The remaining schemes (ITR/ITRB/GM, Greedy-*,
// Luby-MIS) have no mid-run preemption points yet: a cancelled request
// returns once the bounded run finishes, which frees the slot late but
// never wedges it.
func (m *Manager) Color(ctx context.Context, req ColorRequest) (*ColorResponse, error) {
	var r resolved
	if err := m.resolve(&req, &r); err != nil {
		return nil, err
	}
	// Arm the per-request deadline here, before the cache lookup, slot
	// queue and single-flight wait, so "the request took too long"
	// covers time spent queued or coalesced behind a slow leader — not
	// just the compute inside lead().
	timeout := m.defaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	for {
		if !req.NoCache {
			if e, ok := m.cache.Get(r.key); ok {
				return r.response(&req, e, true, false), nil
			}
		}

		// Single-flight: join an identical in-flight computation, or
		// become the leader. NoCache requests never join or lead — they
		// were asked for a fresh, private run.
		var f *flight
		leader := req.NoCache
		if !req.NoCache {
			m.sfMu.Lock()
			if existing, ok := m.sf[r.key]; ok {
				f = existing
			} else {
				f = &flight{done: make(chan struct{})}
				m.sf[r.key] = f
				leader = true
			}
			m.sfMu.Unlock()
		}
		if !leader {
			joined := time.Now()
			select {
			case <-f.done:
			case <-ctx.Done():
				m.cancelled.Add(1)
				return nil, fmt.Errorf("%w: %v", ErrCancelled, ctx.Err())
			}
			if f.err == nil {
				m.coalesced.Add(1)
				wait := time.Since(joined)
				if m.met != nil {
					m.met.sfWait.Observe(wait)
				}
				obs.TraceFrom(ctx).AddSpan("singleflight-wait", wait.Seconds())
				return r.response(&req, f.entry, false, true), nil
			}
			// The leader failed (typically its own deadline). Loop and
			// compute for ourselves rather than inheriting its error.
			continue
		}

		e, err := m.lead(ctx, &req, &r, f)
		if err != nil {
			return nil, err
		}
		return r.response(&req, e, false, false), nil
	}
}

// ColorCached answers req from the local result cache alone: no
// computation, no single-flight wait, no slot. ok is false whenever
// the cached-serve preconditions don't hold (a request Color would
// reject, a non-deterministic scheme, NoCache) or the key simply isn't
// resident — the caller falls back to the full Color path (or routes
// the request to the key's home node). Absent keys are probed with
// Cache.Peek, so the steady-state "not resident here, lives on its
// home" case does not pollute the miss counter.
func (m *Manager) ColorCached(req ColorRequest) (*ColorResponse, bool) {
	if req.NoCache {
		return nil, false
	}
	var r resolved
	if err := m.resolve(&req, &r); err != nil || req.NoCache {
		return nil, false
	}
	e, ok := m.cache.Peek(r.key)
	if !ok {
		return nil, false
	}
	return r.response(&req, e, true, false), true
}

// lead runs the computation as the single-flight leader: acquire a slot
// (the caller already armed the request deadline on ctx), run checked,
// publish to cache and followers.
func (m *Manager) lead(ctx context.Context, req *ColorRequest, r *resolved, f *flight) (*Entry, error) {
	finished := false
	finish := func(e *Entry, err error) {
		if f == nil || finished {
			return
		}
		finished = true
		m.sfMu.Lock()
		delete(m.sf, r.key)
		m.sfMu.Unlock()
		f.entry, f.err = e, err
		close(f.done)
	}
	// A panicking run (net/http recovers it per-connection, the daemon
	// survives) must not leave the flight registered with done never
	// closed — every later request for this key would join a dead
	// flight and block forever. Release the followers, then re-panic.
	defer func() {
		if r := recover(); r != nil {
			finish(nil, fmt.Errorf("coloring run panicked: %v", r))
			panic(r)
		}
	}()

	// Acquire an inflight slot; queued requests stay cancellable.
	queued := time.Now()
	select {
	case m.sem <- struct{}{}:
		m.observeQueueWait(ctx, queued)
	case <-ctx.Done():
		err := fmt.Errorf("%w: %v", ErrCancelled, ctx.Err())
		finish(nil, err)
		m.cancelled.Add(1)
		return nil, err
	}
	defer func() { <-m.sem }()

	start := time.Now()
	res, err := harness.RunChecked(r.algo, r.g, harness.Config{
		Procs:   req.Procs,
		Seed:    req.Seed,
		Epsilon: req.Epsilon,
		Ctx:     ctx,
	})
	if err != nil {
		// Classify by the error chain alone: every cancellation path
		// returns a context error (par.CtxErr synthesizes DeadlineExceeded
		// even when the timer goroutine is starved on GOMAXPROCS=1), and
		// checking ctx.Err() as a fallback would mislabel a genuine
		// verification failure that races with deadline expiry as a 504.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("%w: %v", ErrCancelled, err)
			m.cancelled.Add(1)
		} else {
			m.failed.Add(1)
		}
		finish(nil, err)
		return nil, err
	}
	run := time.Since(start)
	if m.met != nil {
		m.met.jobRun.With(r.algo.Name).Observe(run)
		m.met.observePhases(obs.TraceFrom(ctx), r.algo.Name, res.Phases)
	}
	obs.TraceFrom(ctx).AddSpan("run/"+r.algo.Name, run.Seconds())
	e := &Entry{
		Colors:         res.Colors,
		NumColors:      res.NumColors,
		Rounds:         res.Rounds,
		ComputeSeconds: run.Seconds(),
	}
	if !req.NoCache {
		m.cache.Put(r.key, e)
	}
	finish(e, nil)
	m.completed.Add(1)
	return e, nil
}
