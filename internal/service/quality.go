package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/dynamic"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/recolor"
	"repro/internal/retry"
)

// Quality SLO engine: coloring quality as a background service
// objective. A quality.Runner wakes when the job manager is idle and
// runs bounded iterated-greedy passes (internal/recolor) over each
// held graph's maintained coloring; a result is adopted only when it
// strictly reduces the distinct color count. Adoption swaps in a new
// cache generation WITHOUT bumping graphVersion — the graph didn't
// change, only its coloring got better — so cached colorings are
// purged, the store snapshot is re-folded (improvements survive
// restarts), and on a cluster the primary ships the improved coloring
// to its placement replicas over the internal replication channel.
//
// Per-graph objectives (targetColors) turn the tracker's state into an
// SLO: met when the maintained count is at or under target, burning
// otherwise. State is served on GET /v1/graphs, GET+PATCH
// /v1/graphs/{id}/quality and /metrics (JSON and Prometheus).

// maxQualityBodyBytes bounds the PATCH /v1/graphs/{id}/quality body
// (a one-field JSON document).
const maxQualityBodyBytes = 1 << 16

// maxRecolorShipBytes bounds a POST /v1/internal/recolor body: a
// []uint32 coloring for a graph within the upload caps, JSON-encoded.
const maxRecolorShipBytes = maxUploadBytes

// EnableRecolor starts the background quality worker: every interval
// (<=0 selects quality.DefaultInterval), when no coloring/mutation job
// is inflight, run up to budget iterated-greedy passes (<=0 selects
// quality.DefaultBudget) over each held graph. Call before serving;
// Close stops the worker.
func (s *Server) EnableRecolor(interval time.Duration, budget int) {
	if s.qrun != nil {
		return
	}
	s.qrun = &quality.Runner{
		Interval: interval,
		Budget:   budget,
		Idle:     func() bool { return s.mgr.Stats().Inflight == 0 },
		Graphs: func() []string {
			entries := s.reg.List()
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name
			}
			return names
		},
		Visit: s.recolorVisit,
	}
	s.qrun.Start()
}

// RecolorEnabled reports whether the background worker is running.
func (s *Server) RecolorEnabled() bool { return s.qrun != nil }

// QualityTracker exposes the per-graph quality state (tests, colorload).
func (s *Server) QualityTracker() *quality.Tracker { return s.qtr }

// recolorVisit is the Runner's per-graph hook: one bounded improvement
// attempt. On a cluster only the graph's active primary recolors —
// replicas receive adopted improvements over /v1/internal/recolor, so
// the placement set never burns the same CPU twice or races two
// different local optima.
func (s *Server) recolorVisit(ctx context.Context, name string, budget int) {
	e, err := s.reg.Get(name)
	if err != nil {
		return
	}
	if s.cl != nil && !s.cl.c.IsActivePrimary(name) {
		return
	}
	// Capture a consistent (snapshot, colors, version) triple under the
	// entry lock, lazily creating the maintained coloring: a registered
	// but never-mutated graph gets one initial full coloring (the same
	// deterministic JP-ADG run a first mutation would pay) and from
	// then on only improves.
	e.mu.Lock()
	if e.dyn == nil {
		e.dyn = dynamic.NewColored(e.G, mutateOptions)
	}
	g, serr := e.dyn.Snapshot()
	colors := e.dyn.Colors()
	numColors := e.dyn.NumColors()
	version := e.dyn.Version()
	e.mu.Unlock()
	if serr != nil {
		return
	}
	s.qtr.Observe(name, numColors, version)
	st, _ := s.qtr.Get(name)
	// Rotate the class-order strategy across visits so the
	// deterministic strategies' fixed points don't stall progress, and
	// vary the shuffle seed so RandomOrder keeps exploring.
	strategy := recolor.Strategy(st.Passes % 3)
	seed := uint64(st.Passes)*0x9e3779b9 + 1
	start := time.Now()
	res, rerr := recolor.IteratedGreedyContext(ctx, g, colors, strategy, budget, seed)
	s.met.recolorPass.ObserveSeconds(time.Since(start).Seconds())
	if rerr != nil {
		return // cancelled mid-pass (shutdown), or the coloring was improper
	}
	saved := 0
	if res.NumColors < numColors {
		e.mu.Lock()
		// Re-check under the lock: a mutation that landed during the
		// pass repaired the coloring at a new version — our candidate
		// colors the OLD graph and must be dropped, not adopted.
		if e.dyn.Version() == version {
			if n, aerr := e.dyn.AdoptColors(res.Colors); aerr == nil {
				saved = n
				e.qualityGen.Add(1)
			}
		}
		e.mu.Unlock()
	}
	s.qtr.RecordPass(name, res.Passes, saved, time.Now())
	if saved > 0 {
		s.met.recolorSaved.Add(int64(saved))
		s.qtr.Observe(name, res.NumColors, version)
		// The adoption is a new cache generation at the same
		// graphVersion: purge every cached coloring of the graph and
		// re-fold the store snapshot so the improvement is durable and
		// the zero-copy read path stops serving the superseded colors.
		s.cacheInvalidations.Add(int64(s.mgr.Cache().DeleteGraph(name)))
		if s.st != nil && s.st.Has(name) {
			s.scheduleCompact(name)
		}
		if s.cl != nil {
			s.shipRecolor(name, version, res.NumColors, res.Colors)
		}
	}
	s.updateQualityGauges(name)
}

// updateQualityGauges mirrors one graph's tracker state into the
// labeled Prometheus gauges.
func (s *Server) updateQualityGauges(name string) {
	st, ok := s.qtr.Get(name)
	if !ok {
		return
	}
	s.met.qualColors.With(name).Set(float64(st.Colors))
	s.met.qualTarget.With(name).Set(float64(st.TargetColors))
	met := 0.0
	if st.Met() {
		met = 1
	}
	s.met.qualMet.With(name).Set(met)
}

// recolorShipment is the POST /v1/internal/recolor body: an adopted
// improvement travelling primary → replica. Version pins the graph
// version the coloring belongs to — a replica mid-catch-up at another
// version rejects it (the primary's next improvement ships again).
type recolorShipment struct {
	Graph     string   `json:"graph"`
	Version   uint64   `json:"version"`
	NumColors int      `json:"numColors"`
	Colors    []uint32 `json:"colors"`
}

// recolorAck is the replica's answer.
type recolorAck struct {
	Graph   string `json:"graph"`
	Adopted bool   `json:"adopted"`
	Colors  int    `json:"colors"`
}

// shipRecolor replicates an adopted improvement to the graph's alive
// placement peers. Best-effort with the standard bounded internal
// retry: a failed peer keeps its (proper, just more colorful)
// coloring and converges on the next improvement or resync.
func (s *Server) shipRecolor(name string, version uint64, numColors int, colors []uint32) {
	payload, err := json.Marshal(recolorShipment{Graph: name, Version: version, NumColors: numColors, Colors: colors})
	if err != nil {
		return
	}
	c := s.cl.c
	for _, peer := range c.Placement(name) {
		if peer == c.Self() || !c.Alive(peer) {
			continue
		}
		err := internalRetry.Do(context.Background(), func(context.Context) error {
			req, rerr := http.NewRequest(http.MethodPost, peer+"/v1/internal/recolor", bytes.NewReader(payload))
			if rerr != nil {
				return retry.Permanent(rerr)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(replicatedHeader, c.Self())
			rtStart := time.Now()
			resp, derr := s.cl.replClient.Do(req)
			s.met.replRTT.With(peer).Observe(time.Since(rtStart))
			if derr != nil {
				return derr
			}
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				return fmt.Errorf("status %d", resp.StatusCode)
			}
			// 4xx: the replica is at another version or already as good —
			// not retryable, not an error worth failing the peer over.
			return nil
		})
		if err != nil {
			s.clusterReplErrors.Add(1)
			fmt.Fprintf(os.Stderr, "service: shipping recolor of %q to %s: %v\n", name, peer, err)
			continue
		}
		c.ReportSuccess(peer)
	}
}

// handleRecolorInternal serves POST /v1/internal/recolor: adopt a
// primary's shipped improvement into the local maintained coloring.
// Idempotent: a coloring no better than what we hold acks adopted=false.
func (s *Server) handleRecolorInternal(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, fmt.Errorf("%w: %s on /v1/internal/recolor (want POST)", ErrMethodNotAllowed, r.Method))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRecolorShipBytes+1))
	if err != nil || len(body) > maxRecolorShipBytes {
		writeError(w, fmt.Errorf("%w: reading body", ErrBadRequest))
		return
	}
	var ship recolorShipment
	if err := json.Unmarshal(body, &ship); err != nil {
		writeError(w, fmt.Errorf("%w: parsing JSON: %v", ErrBadRequest, err))
		return
	}
	e, err := s.reg.Get(ship.Graph)
	if err != nil {
		writeError(w, err) // 404: we'll pick the coloring up at bootstrap/resync
		return
	}
	adopted, nc, version, err := e.adoptShipment(ship)
	if err != nil {
		writeError(w, err)
		return
	}
	if adopted {
		s.qtr.Observe(ship.Graph, nc, version)
		s.qtr.RecordPass(ship.Graph, 0, 0, time.Now())
		s.cacheInvalidations.Add(int64(s.mgr.Cache().DeleteGraph(ship.Graph)))
		if s.st != nil && s.st.Has(ship.Graph) {
			s.scheduleCompact(ship.Graph)
		}
	}
	s.updateQualityGauges(ship.Graph)
	writeJSON(w, http.StatusOK, recolorAck{Graph: ship.Graph, Adopted: adopted, Colors: nc})
}

// adoptShipment adopts a shipped recolor into e's maintained coloring
// under the entry's mutation lock, released by defer so no failure
// inside the adoption can leave the graph locked. It returns whether
// the coloring was adopted and the maintained count and version after.
func (e *GraphEntry) adoptShipment(ship recolorShipment) (adopted bool, nc int, version uint64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dyn == nil {
		e.dyn = dynamic.NewColored(e.G, mutateOptions)
	}
	switch {
	case e.dyn.Version() != ship.Version:
		return false, 0, 0, fmt.Errorf("%w: recolor for %q at version %d, local version is %d", ErrConflict, ship.Graph, ship.Version, e.dyn.Version())
	case ship.NumColors >= e.dyn.NumColors():
		// Already as good (an idempotent re-delivery, or our own worker
		// got there first): ack without touching anything.
	default:
		if _, err := e.dyn.AdoptColors(ship.Colors); err != nil {
			return false, 0, 0, fmt.Errorf("%w: shipped coloring rejected: %v", ErrBadRequest, err)
		}
		e.qualityGen.Add(1)
		adopted = true
	}
	return adopted, e.dyn.NumColors(), e.dyn.Version(), nil
}

// qualityDoc is the GET/PATCH /v1/graphs/{id}/quality response: the
// tracker state plus its SLO classification.
type qualityDoc struct {
	Graph string `json:"graph"`
	quality.State
	SLO string `json:"slo"`
}

// qualityPatch is the PATCH body. TargetColors 0 clears the objective.
type qualityPatch struct {
	TargetColors *int `json:"targetColors"`
}

func (s *Server) qualityDocOf(name string, e *GraphEntry) qualityDoc {
	// Fold the current maintained count in first, so a graph that was
	// mutated (or restored) before any worker pass reports its real
	// colors instead of zeros.
	if _, nc, ver, ok := e.MaintainedColors(); ok {
		s.qtr.Observe(name, nc, ver)
	}
	st, _ := s.qtr.Get(name)
	return qualityDoc{Graph: name, State: st, SLO: st.SLO()}
}

// handleGraphQuality serves /v1/graphs/{id}/quality: GET returns the
// quality state (any node holding the graph answers); PATCH sets or
// clears the targetColors objective on the primary and fans the new
// target out to the placement peers.
func (s *Server) handleGraphQuality(w http.ResponseWriter, r *http.Request, name string) {
	switch r.Method {
	case http.MethodGet:
		if s.routeRead(w, r, name, nil) {
			return
		}
		e, err := s.reg.Get(name)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.qualityDocOf(name, e))
	case http.MethodPatch:
		body, err := io.ReadAll(io.LimitReader(r.Body, maxQualityBodyBytes+1))
		if err != nil || len(body) > maxQualityBodyBytes {
			writeError(w, fmt.Errorf("%w: reading body", ErrBadRequest))
			return
		}
		if s.routeWrite(w, r, name, body) {
			return
		}
		e, err := s.reg.Get(name)
		if err != nil {
			writeError(w, err)
			return
		}
		var patch qualityPatch
		if err := json.Unmarshal(body, &patch); err != nil {
			writeError(w, fmt.Errorf("%w: parsing JSON: %v", ErrBadRequest, err))
			return
		}
		if patch.TargetColors == nil {
			writeError(w, fmt.Errorf("%w: body must carry targetColors", ErrBadRequest))
			return
		}
		if *patch.TargetColors < 0 {
			writeError(w, fmt.Errorf("%w: targetColors must be >= 0 (0 clears the objective)", ErrBadRequest))
			return
		}
		s.qtr.SetTarget(name, *patch.TargetColors)
		s.updateQualityGauges(name)
		if s.cl != nil && r.Header.Get(replicatedHeader) == "" && s.cl.c.IsActivePrimary(name) {
			s.fanoutQuality(name, body, r.Header.Get(obs.RequestIDHeader))
		}
		writeJSON(w, http.StatusOK, s.qualityDocOf(name, e))
	default:
		writeError(w, fmt.Errorf("%w: %s on /v1/graphs/{id}/quality (want GET or PATCH)", ErrMethodNotAllowed, r.Method))
	}
}

// fanoutQuality best-effort replicates a PATCHed objective to the
// alive placement peers, so GET quality answers the same SLO from any
// holder. Objectives are in-memory state: a restarted node converges
// at the next PATCH (documented in the README).
func (s *Server) fanoutQuality(name string, body []byte, reqID string) {
	c := s.cl.c
	for _, peer := range c.Placement(name) {
		if peer == c.Self() || !c.Alive(peer) {
			continue
		}
		err := internalRetry.Do(context.Background(), func(context.Context) error {
			req, rerr := http.NewRequest(http.MethodPatch, peer+"/v1/graphs/"+name+"/quality", bytes.NewReader(body))
			if rerr != nil {
				return retry.Permanent(rerr)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(replicatedHeader, c.Self())
			if reqID != "" {
				req.Header.Set(obs.RequestIDHeader, reqID)
			}
			resp, derr := s.cl.replClient.Do(req)
			if derr != nil {
				return derr
			}
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				return fmt.Errorf("status %d", resp.StatusCode)
			}
			return nil
		})
		if err != nil {
			s.clusterReplErrors.Add(1)
			fmt.Fprintf(os.Stderr, "service: replicating quality target of %q to %s: %v\n", name, peer, err)
		}
	}
}

// QualityMetrics is the /metrics view of the quality engine.
type QualityMetrics struct {
	// Enabled reports whether the background worker is running (the
	// tracker and endpoints work either way).
	Enabled bool `json:"enabled"`
	// Cycles / SkippedCycles: worker wakeups that swept vs. wakeups
	// skipped because jobs were inflight.
	Cycles        int64 `json:"cycles"`
	SkippedCycles int64 `json:"skippedCycles"`
	// Passes / Improvements / ColorsSaved: iterated-greedy passes run,
	// adoptions, and the total colors those adoptions removed.
	Passes       int64 `json:"passes"`
	Improvements int64 `json:"improvements"`
	ColorsSaved  int64 `json:"colorsSaved"`
	// Graphs maps each tracked graph to its quality state.
	Graphs map[string]quality.State `json:"graphs,omitempty"`
}

func (s *Server) qualityMetrics() *QualityMetrics {
	qm := &QualityMetrics{Enabled: s.qrun != nil}
	if s.qrun != nil {
		qm.Cycles = s.qrun.Cycles()
		qm.SkippedCycles = s.qrun.Skipped()
	}
	qm.Passes, qm.Improvements, qm.ColorsSaved = s.qtr.Totals()
	if snap := s.qtr.Snapshot(); len(snap) > 0 {
		qm.Graphs = snap
	}
	return qm
}
