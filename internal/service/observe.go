package service

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// serverMetrics bundles every obs handle the serving layer observes
// into. All handles are nil-safe (a Server always builds a registry,
// but a Manager constructed directly in tests has no metrics at all),
// so the hot paths observe unconditionally.
type serverMetrics struct {
	reg *obs.Registry

	// httpDur: per-endpoint × status-class request duration, recorded
	// by the Handler middleware around the whole mux dispatch.
	httpDur *obs.HistogramVec
	// jobQueueWait: time a coloring/mutation job waited for an
	// inflight slot. jobRun: the checked run itself, per algorithm.
	// sfWait: time a follower spent coalesced behind an identical
	// in-flight leader.
	jobQueueWait *obs.Histogram
	jobRun       *obs.HistogramVec
	sfWait       *obs.Histogram
	// jobRuns: coloring runs started, by the worker count each got.
	jobRuns *obs.CounterVec
	// enginePhase: per-algorithm engine phase timings (order/color for
	// the JP family, speculate/repair/fallback for SPEC-ADG, ...) from
	// harness.RunResult.Phases.
	enginePhase *obs.HistogramVec
	// proxyRTT / replRTT: per-peer round-trips of proxied client
	// requests and replication RPCs.
	proxyRTT *obs.HistogramVec
	replRTT  *obs.HistogramVec
	// mutateDirty: dirty-vertex fraction per repaired batch (quality
	// of the localized-repair bet); mutateRepair: repair wall time.
	mutateDirty  *obs.Histogram
	mutateRepair *obs.Histogram
	// walAppend / compaction: store durability latencies (append
	// includes the fsync; compaction spans snapshot write → adoption).
	walAppend  *obs.Histogram
	compaction *obs.Histogram
	// recolorPass: wall time of one background iterated-greedy visit;
	// recolorSaved: total colors removed by adopted improvements.
	recolorPass  *obs.Histogram
	recolorSaved obs.Counter
	// qualColors / qualTarget / qualMet: per-graph quality gauges —
	// maintained color count, targetColors objective (0: none) and
	// whether the SLO is met (1/0). Cardinality is bounded by the
	// registry, not by requests.
	qualColors *obs.GaugeVec
	qualTarget *obs.GaugeVec
	qualMet    *obs.GaugeVec
}

func newServerMetrics() *serverMetrics {
	r := obs.NewRegistry()
	// Dirty fractions live in [0,1]; latency bounds would waste every
	// bucket past the first.
	fracBounds := []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1}
	return &serverMetrics{
		reg:          r,
		httpDur:      r.NewHistogramVec("colord_http_request_duration_seconds", "HTTP request duration by endpoint and status class.", []string{"endpoint", "class"}, nil),
		jobQueueWait: r.NewHistogramVec("colord_job_queue_wait_seconds", "Time jobs spent queued for an inflight slot.", nil, nil).With(),
		jobRun:       r.NewHistogramVec("colord_job_run_seconds", "Checked coloring run duration by algorithm.", []string{"algorithm"}, nil),
		sfWait:       r.NewHistogramVec("colord_job_singleflight_wait_seconds", "Time followers waited on an identical in-flight run.", nil, nil).With(),
		jobRuns:      r.NewCounterVec("colord_job_runs_total", "Coloring runs started, by the worker count each got.", []string{"procs"}),
		enginePhase:  r.NewHistogramVec("colord_engine_phase_seconds", "Engine phase duration by algorithm and phase.", []string{"algorithm", "phase"}, nil),
		proxyRTT:     r.NewHistogramVec("colord_proxy_rtt_seconds", "Proxied request round-trip by peer.", []string{"peer"}, nil),
		replRTT:      r.NewHistogramVec("colord_replication_rtt_seconds", "Replication RPC round-trip by peer.", []string{"peer"}, nil),
		mutateDirty:  r.NewHistogramVec("colord_mutate_dirty_fraction", "Dirty-vertex fraction per repaired mutation batch.", nil, fracBounds).With(),
		mutateRepair: r.NewHistogramVec("colord_mutate_repair_seconds", "Mutation repair duration.", nil, nil).With(),
		walAppend:    r.NewHistogramVec("colord_store_wal_append_seconds", "WAL append+fsync duration.", nil, nil).With(),
		compaction:   r.NewHistogramVec("colord_store_compaction_seconds", "Compaction duration (snapshot write through adoption).", nil, nil).With(),
		recolorPass:  r.NewHistogramVec("colord_recolor_pass_seconds", "Background iterated-greedy recolor visit duration.", nil, nil).With(),
		recolorSaved: r.NewCounterVec("colord_recolor_colors_saved_total", "Colors removed from maintained colorings by adopted recolor improvements.", nil).With(),
		qualColors:   r.NewGaugeVec("colord_graph_quality_colors", "Maintained coloring's distinct color count by graph.", []string{"graph"}),
		qualTarget:   r.NewGaugeVec("colord_graph_quality_target_colors", "targetColors quality objective by graph (0: none).", []string{"graph"}),
		qualMet:      r.NewGaugeVec("colord_graph_quality_slo_met", "Whether the graph's quality SLO is met (1) or not (0).", []string{"graph"}),
	}
}

// httpSnapshots merges the per-(endpoint, class) series into one
// snapshot per endpoint — the per-endpoint server-side latency view
// colorload diffs across a run.
func (m *serverMetrics) httpSnapshots() map[string]obs.HistogramSnapshot {
	if m == nil {
		return nil
	}
	raw := m.httpDur.Snapshots()
	if len(raw) == 0 {
		return nil
	}
	out := make(map[string]obs.HistogramSnapshot)
	for k, s := range raw {
		ep := k
		if i := strings.LastIndexByte(k, ','); i >= 0 {
			ep = k[:i]
		}
		out[ep] = out[ep].Merge(s)
	}
	return out
}

// runsByProcs is the JSON view of jobRuns: run counts keyed by worker
// count.
func (m *serverMetrics) runsByProcs() map[string]int64 {
	if m == nil {
		return nil
	}
	return m.jobRuns.Values()
}

// observePhases records an engine run's phase timings and mirrors
// them as spans on the request trace.
func (m *serverMetrics) observePhases(tc *obs.TraceContext, algorithm string, phases []harness.PhaseTiming) {
	if m == nil {
		return
	}
	for _, p := range phases {
		m.enginePhase.With(algorithm, p.Name).ObserveSeconds(p.Seconds)
		tc.AddSpan(algorithm+"/"+p.Name, p.Seconds)
	}
}

// knownEndpoints is the bounded label set for httpDur: every
// registered route, with /v1/graphs subpaths collapsed to patterns so
// graph names cannot explode series cardinality.
var knownEndpoints = map[string]bool{
	"/v1/graphs":             true,
	"/v1/color":              true,
	"/v1/color/bin":          true,
	"/v1/admin/compact":      true,
	"/v1/admin/faults":       true,
	"/v1/internal/replicate": true,
	"/v1/internal/tail":      true,
	"/v1/internal/version":   true,
	"/v1/internal/lease":     true,
	"/v1/internal/snapshot":  true,
	"/v1/internal/recolor":   true,
	"/v1/cluster/status":     true,
	"/v1/cluster/metrics":    true,
	"/v1/debug/trace":        true,
	"/healthz":               true,
	"/metrics":               true,
}

func normalizeEndpoint(path string) string {
	if knownEndpoints[path] {
		return path
	}
	if strings.HasPrefix(path, "/v1/graphs/") {
		if strings.HasSuffix(path, "/mutate") {
			return "/v1/graphs/{id}/mutate"
		}
		if strings.HasSuffix(path, "/quality") {
			return "/v1/graphs/{id}/quality"
		}
		return "/v1/graphs/{id}"
	}
	return "other"
}

func statusClass(status int) string {
	switch {
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// statusRecorder captures the response status for the duration
// middleware without changing write behavior.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestLog is the sampled structured request logger. sample=N logs
// every Nth request; 5xx responses always log. A nil logger disables.
type requestLog struct {
	logger *slog.Logger
	sample int64
	seq    atomic.Int64
}

func (l *requestLog) log(reqID, node, method, endpoint string, status int, seconds float64) {
	if l == nil || l.logger == nil {
		return
	}
	if status < 500 {
		if l.sample <= 0 {
			return
		}
		if l.sample > 1 && l.seq.Add(1)%l.sample != 0 {
			return
		}
	}
	l.logger.Info("request",
		slog.String("requestId", reqID),
		slog.String("node", node),
		slog.String("method", method),
		slog.String("endpoint", endpoint),
		slog.Int("status", status),
		slog.Float64("seconds", seconds),
	)
}

// SetRequestLog attaches a structured request logger. sample=1 logs
// every request, N>1 every Nth (5xx always log), 0 only 5xx.
func (s *Server) SetRequestLog(logger *slog.Logger, sample int64) {
	s.reqLog = &requestLog{logger: logger, sample: sample}
}

// SetNodeName overrides the node identity reported by traces,
// request logs and /healthz (AttachCluster sets it to the cluster
// self URL; standalone daemons default to the hostname).
func (s *Server) SetNodeName(name string) { s.node = name }

// NodeName reports the node identity.
func (s *Server) NodeName() string { return s.node }

// TraceRing exposes the span ring (tests, debug handler).
func (s *Server) TraceRing() *obs.Ring { return s.ring }

// handleDebugTrace serves GET /v1/debug/trace?last=N[&id=reqid]: the
// most recent completed request traces, newest first.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, fmt.Errorf("%w: %s on /v1/debug/trace (want GET)", ErrMethodNotAllowed, r.Method))
		return
	}
	last := 32
	if v := r.URL.Query().Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, fmt.Errorf("%w: last must be a positive integer", ErrBadRequest))
			return
		}
		last = n
	}
	var traces []obs.Trace
	if id := r.URL.Query().Get("id"); id != "" {
		traces = s.ring.Find(id)
		if len(traces) > last {
			traces = traces[:last]
		}
	} else {
		traces = s.ring.Last(last)
	}
	if traces == nil {
		traces = []obs.Trace{}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"node":   s.node,
		"count":  len(traces),
		"traces": traces,
	})
}

// instrument wraps the mux dispatch with the full observability
// envelope: request-ID issue/propagation, duration + status-class
// histogram, span-ring capture and sampled structured logging.
func (s *Server) instrument(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := r.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		reqID = obs.NewRequestID()
		// Stash the generated ID on the inbound headers too: the proxy
		// and replication paths read it from there to forward it.
		r.Header.Set(obs.RequestIDHeader, reqID)
	}
	w.Header().Set(obs.RequestIDHeader, reqID)
	tc := &obs.TraceContext{RequestID: reqID}
	r = r.WithContext(obs.WithTrace(r.Context(), tc))
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	elapsed := time.Since(start)
	ep := normalizeEndpoint(r.URL.Path)
	s.met.httpDur.With(ep, statusClass(rec.status)).Observe(elapsed)
	s.ring.Add(obs.Trace{
		RequestID: reqID,
		Node:      s.node,
		Method:    r.Method,
		Endpoint:  ep,
		Status:    rec.status,
		Start:     start,
		Seconds:   elapsed.Seconds(),
		Spans:     tc.Spans(),
	})
	s.reqLog.log(reqID, s.node, r.Method, ep, rec.status, elapsed.Seconds())
}
