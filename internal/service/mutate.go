package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/dynamic"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/obs"
)

// maxMutateBodyBytes bounds a mutate POST body; maxMutateVertices and
// maxMutateEdges bound the graph a sequence of batches can grow to, so
// mutations cannot be used to build an OOM bomb incrementally past the
// generator-spec caps.
const (
	maxMutateBodyBytes = 8 << 20
	maxMutateVertices  = 1 << 24
	maxMutateEdges     = maxSpecEdges
)

// mutateOptions are the fixed parameters of every maintained dynamic
// coloring: deterministic (seed-fixed) so that mutate responses are a
// pure function of the batch history, ε at the paper's evaluation
// default, and fallback at a quarter of the graph.
var mutateOptions = dynamic.Options{Seed: 1, Epsilon: 0.01, FallbackFraction: 0.25}

// MutateRequest is the POST /v1/graphs/{id}/mutate body: one atomic
// batch of mutations. Edges are [u, v] pairs; application order inside
// the batch is addVertices, delVertices, delEdges, addEdges (see
// dynamic.Batch).
type MutateRequest struct {
	AddVertices int       `json:"addVertices"`
	DelVertices []uint32  `json:"delVertices"`
	AddEdges    EdgePairs `json:"addEdges"`
	DelEdges    EdgePairs `json:"delEdges"`
	// IncludeColors asks for the maintained coloring after repair.
	IncludeColors bool `json:"includeColors"`
}

// EdgePairs is a list of [u, v] edge pairs. It decodes exactly as
// [][2]uint32 does: the same JSON is accepted, with the same values,
// and the same JSON is rejected. The plain shape, an array of arrays of
// two decimal integers below 2^32, is parsed in one pass without
// reflection; any other input (null, a pair of another length, a sign,
// a fraction or exponent, a string, an out-of-range value) goes to
// encoding/json. Like encoding/json, a decode reuses the slice's
// backing array, which shows only when a key repeats in one object.
type EdgePairs [][2]uint32

// UnmarshalJSON implements json.Unmarshaler.
func (p *EdgePairs) UnmarshalJSON(b []byte) error {
	if pairs, ok := parseEdgePairs(b, (*p)[:0]); ok {
		*p = pairs
		return nil
	}
	return json.Unmarshal(b, (*[][2]uint32)(p))
}

// parseEdgePairs appends the pairs of b, which must read [[u,v],…] with
// JSON whitespace anywhere between tokens, to out; ok is false for any
// other input. An empty array yields a non-nil empty slice, as
// encoding/json's does.
func parseEdgePairs(b []byte, out [][2]uint32) (_ [][2]uint32, ok bool) {
	i := 0
	skip := func() {
		for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
			i++
		}
	}
	next := func(c byte) bool {
		skip()
		if i < len(b) && b[i] == c {
			i++
			return true
		}
		return false
	}
	num := func() (uint32, bool) {
		skip()
		start := i
		var v uint64
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			if v = v*10 + uint64(b[i]-'0'); v > math.MaxUint32 {
				return 0, false
			}
		}
		// JSON numbers have no leading zeros.
		return uint32(v), i > start && (b[start] != '0' || i == start+1)
	}
	if !next('[') {
		return nil, false
	}
	if next(']') {
		skip()
		return [][2]uint32{}, i == len(b)
	}
	if cap(out) == 0 {
		out = make([][2]uint32, 0, max(bytes.Count(b, []byte{']'})-1, 0))
	}
	for {
		if !next('[') {
			return nil, false
		}
		u, okU := num()
		if !okU || !next(',') {
			return nil, false
		}
		v, okV := num()
		if !okV || !next(']') {
			return nil, false
		}
		out = append(out, [2]uint32{u, v})
		if next(']') {
			skip()
			return out, i == len(b)
		}
		if !next(',') {
			return nil, false
		}
	}
}

// MutateResponse reports one applied batch and its incremental repair.
type MutateResponse struct {
	Graph string `json:"graph"`
	// Version is the graph version after the batch. Every /v1/color
	// response carries the version it was computed against, and the
	// result cache keys on it, so a mutation can never be answered
	// with a stale coloring.
	Version uint64 `json:"version"`
	N       int    `json:"n"`
	M       int64  `json:"m"`
	// What the batch materialized (no-ops excluded).
	AddedEdges   int `json:"addedEdges"`
	RemovedEdges int `json:"removedEdges"`
	NewVertices  int `json:"newVertices"`
	// Conflict frontier and repair outcome.
	ConflictEdges    int     `json:"conflictEdges"`
	DirtyVertices    int     `json:"dirtyVertices"`
	RepairedVertices int     `json:"repairedVertices"`
	Rounds           int     `json:"rounds"`
	Fallback         bool    `json:"fallback"`
	NumColors        int     `json:"numColors"`
	RepairSeconds    float64 `json:"repairSeconds"`
	// Persisted reports whether this batch is durably logged: true when
	// a data directory is attached and the WAL append fsync'd; false
	// for memory-only daemons and while persistence is degraded (disk
	// failure — the daemon keeps serving and self-heals by compaction).
	Persisted bool `json:"persisted"`
	// Replicated counts the cluster replicas that synchronously acked
	// this batch before the response left (0 for single-node daemons
	// and no-op batches; down replicas catch up on rejoin).
	Replicated int `json:"replicated,omitempty"`
	// Colors is the maintained coloring (present when includeColors).
	Colors []uint32 `json:"colors,omitempty"`
}

// MutateOutcome bundles what one applied batch produced: the repair
// result, the graph shape at the result's version (captured under the
// entry lock — the overlay itself must never be read unlocked), the
// repair wall time and, when asked, a copy of the maintained coloring.
type MutateOutcome struct {
	Res           *dynamic.Result
	N             int
	M             int64
	RepairSeconds float64
	Colors        []uint32
	// Persisted reports whether this batch is durably logged (true for
	// a no-op batch under a healthy persist hook — nothing needed
	// logging; false when the hook is absent or persistence is
	// degraded, version change or not).
	Persisted bool
}

// Mutate applies one batch to the entry under its lock, lazily creating
// the maintained dynamic coloring on first use. persist, when non-nil,
// is called under the same lock after a batch that advanced the version
// — the WAL hook: holding the lock pins WAL record order to mutation
// order. The hook reports whether the batch is durable (fsync'd) and
// cannot fail the mutation: on disk trouble it degrades to
// skip-and-heal (see Server.persistBatch) so the applied batch is
// always acked, with the outcome's Persisted flag carrying the truth —
// an error ack for an applied batch would invite client retries that
// double-apply.
//
// replicate, when non-nil, runs under the same lock BEFORE persist —
// the cluster streaming hook: replicating before the local WAL append
// means a crash between the two leaves the primary behind its
// replicas (a clean tail catch-up on restart) and never ahead of them
// with an unacknowledged orphan batch (a forked chain).
func (e *GraphEntry) Mutate(b dynamic.Batch, includeColors bool, persist func(version uint64, b dynamic.Batch) bool, replicate func(version uint64, b dynamic.Batch)) (*MutateOutcome, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dyn == nil {
		e.dyn = dynamic.NewColored(e.G, mutateOptions)
	}
	versionBefore := e.dyn.Version()
	if int64(e.dyn.Overlay().NumVertices())+int64(b.AddVertices) > maxMutateVertices {
		return nil, fmt.Errorf("%w: mutation would exceed %d vertices", ErrBadRequest, maxMutateVertices)
	}
	if e.dyn.Overlay().NumEdges()+int64(len(b.AddEdges)) > maxMutateEdges {
		return nil, fmt.Errorf("%w: mutation would exceed %d edges", ErrBadRequest, maxMutateEdges)
	}
	start := time.Now()
	res, err := e.dyn.Apply(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// A no-op batch (version unchanged) needs no record: it is exactly
	// as durable as the state it left alone — which, under degraded
	// persistence, is NOT durable (earlier acked batches went unlogged),
	// so the degraded flag decides when the hook isn't consulted.
	persisted := persist != nil && !e.persistBroken.Load()
	if res.Version != versionBefore {
		if replicate != nil {
			replicate(res.Version, b)
			// The crash window the replicate-before-persist ordering is
			// designed around: dying here leaves the replicas ahead of the
			// local WAL, and restart must catch the tail up from a peer.
			_ = faultinject.Check(faultinject.PointCrashAfterReplicate, e.Name)
		}
		if persist != nil {
			persisted = persist(res.Version, b)
		}
		e.lastBatchHash = batchHash(res.Version, &b)
	}
	out := &MutateOutcome{
		Persisted:     persisted,
		Res:           res,
		N:             e.dyn.Overlay().NumVertices(),
		M:             e.dyn.Overlay().NumEdges(),
		RepairSeconds: time.Since(start).Seconds(),
	}
	if includeColors {
		out.Colors = e.dyn.Colors()
	}
	return out, nil
}

// handleGraphSub routes /v1/graphs/{id} (GET info) and
// /v1/graphs/{id}/mutate (POST batch).
func (s *Server) handleGraphSub(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/graphs/")
	parts := strings.Split(rest, "/")
	switch {
	case len(parts) == 1 && parts[0] != "":
		if r.Method != http.MethodGet {
			writeError(w, fmt.Errorf("%w: %s on /v1/graphs/{id} (want GET)", ErrMethodNotAllowed, r.Method))
			return
		}
		if s.routeRead(w, r, parts[0], nil) {
			return
		}
		e, err := s.reg.Get(parts[0])
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.infoOf(e))
	case len(parts) == 2 && parts[1] == "mutate":
		s.handleMutate(w, r, parts[0])
	case len(parts) == 2 && parts[1] == "quality":
		s.handleGraphQuality(w, r, parts[0])
	default:
		writeError(w, fmt.Errorf("%w: unknown path %q", ErrNotFound, r.URL.Path))
	}
}

// handleMutate serves POST /v1/graphs/{id}/mutate: apply one batch,
// repair the maintained coloring, and invalidate every cached coloring
// of the graph (the version bump already makes them unservable; the
// purge just frees the memory early).
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodPost {
		writeError(w, fmt.Errorf("%w: %s on /v1/graphs/{id}/mutate (want POST)", ErrMethodNotAllowed, r.Method))
		return
	}
	s.mutateRequests.Add(1)
	fail := func(err error) {
		s.mutateErrors.Add(1)
		writeError(w, err)
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxMutateBodyBytes+1))
	if err != nil {
		fail(fmt.Errorf("%w: reading body: %v", ErrBadRequest, err))
		return
	}
	if len(body) > maxMutateBodyBytes {
		fail(fmt.Errorf("%w: body exceeds %d bytes", ErrBadRequest, maxMutateBodyBytes))
		return
	}
	// Mutations are writes: only the graph's active primary applies
	// them; every other node proxies (the body travels along).
	if s.routeWrite(w, r, name, body) {
		return
	}
	// A just-promoted or just-rejoined primary must be caught up to
	// everything its peers acked before it may mint new versions —
	// otherwise two nodes assign the same version to different batches
	// — and one that missed the registration while down bootstraps the
	// graph instead of 404ing its writes forever.
	entry, err := s.ensureSynced(name)
	if err != nil {
		fail(err)
		return
	}
	// With leases enabled, being the active primary in our own view is
	// not enough: a majority of the full member set must agree, via
	// unexpired lease grants, before this write may be acked. An
	// isolated or just-demoted primary fails here and fences itself
	// (503) instead of acking a write the rest of the cluster will
	// never see.
	if err := s.ensureLease(entry.Name); err != nil {
		s.mutateErrors.Add(1)
		unavailable(w, err)
		return
	}
	var req MutateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		fail(fmt.Errorf("%w: parsing JSON: %v", ErrBadRequest, err))
		return
	}
	batch := dynamic.Batch{
		AddVertices: req.AddVertices,
		DelVertices: req.DelVertices,
		DelEdges:    pairsToEdges(req.DelEdges),
		AddEdges:    pairsToEdges(req.AddEdges),
	}
	// The repair runs inside the manager's inflight budget, like any
	// coloring job. The dynamic repair has no preemption points yet, so
	// (as with ITR/GM colorings) a cancelled request frees its slot only
	// when the batch completes — but it stays cancellable while queued.
	if err := s.mgr.acquireSlot(r.Context()); err != nil {
		fail(err)
		return
	}
	defer s.mgr.releaseSlot()
	// The replication hook streams the applied batch to the placement
	// replicas before the WAL append and the ack (see Mutate); the
	// count of synchronous acks lands in the response.
	replicated := 0
	var replicate func(uint64, dynamic.Batch)
	tc := obs.TraceFrom(r.Context())
	if s.cl != nil {
		reqID := r.Header.Get(obs.RequestIDHeader)
		replicate = func(version uint64, b dynamic.Batch) {
			replStart := time.Now()
			replicated = s.replicateBatch(entry, version, b, reqID)
			tc.AddSpan("replicate", time.Since(replStart).Seconds())
		}
	}
	out, err := entry.Mutate(batch, req.IncludeColors, s.persistBatch(entry), replicate)
	if err != nil {
		fail(err)
		return
	}
	res := out.Res
	// Observe the repair's shape: wall time and the dirty fraction (how
	// local the localized repair actually was for this batch).
	s.met.mutateRepair.ObserveSeconds(out.RepairSeconds)
	if out.N > 0 {
		s.met.mutateDirty.ObserveSeconds(float64(len(res.Dirty)) / float64(out.N))
	}
	tc.AddSpan("repair", out.RepairSeconds)
	// Purge cached colorings of prior versions — only when the batch
	// materialized something: a no-op batch keeps the version, so the
	// cached colorings of the current version are still valid.
	if res.AddedEdges > 0 || res.RemovedEdges > 0 || res.NewVertices > 0 {
		s.cacheInvalidations.Add(int64(s.mgr.Cache().DeleteGraph(name)))
	}
	if res.Fallback {
		s.mutateFallbacks.Add(1)
	}
	// The repair re-established the maintained coloring at the new
	// version — fold its count into the quality tracker (a repair may
	// widen the palette; the SLO view must not keep reporting the
	// tighter pre-mutation count).
	s.qtr.Observe(name, res.NumColors, res.Version)
	s.updateQualityGauges(name)
	writeJSONCompact(w, http.StatusOK, MutateResponse{
		Graph:            name,
		Version:          res.Version,
		Persisted:        out.Persisted,
		Replicated:       replicated,
		N:                out.N,
		M:                out.M,
		AddedEdges:       res.AddedEdges,
		RemovedEdges:     res.RemovedEdges,
		NewVertices:      res.NewVertices,
		ConflictEdges:    res.ConflictEdges,
		DirtyVertices:    len(res.Dirty),
		RepairedVertices: res.Repaired,
		Rounds:           res.Rounds,
		Fallback:         res.Fallback,
		NumColors:        res.NumColors,
		RepairSeconds:    out.RepairSeconds,
		Colors:           out.Colors,
	})
}

func pairsToEdges(pairs [][2]uint32) []graph.Edge {
	if len(pairs) == 0 {
		return nil
	}
	out := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		out[i] = graph.Edge{U: p[0], V: p[1]}
	}
	return out
}
