package service

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/quality"
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
	// recolorPass: wall time of one background iterated-greedy visit.
	recolorPass *obs.Histogram
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
	}
}

// registerCounters creates the server's request counters: stored
// families of s.met.reg that SnapshotMetrics reads for the JSON document.
func (s *Server) registerCounters() {
	counter := func(name, help string) obs.Counter { return s.met.reg.NewCounterVec(name, help, nil).With() }
	s.requests = counter("colord_requests_total", "API requests received.")
	s.graphUploads = counter("colord_graph_uploads_total", "Graph registrations served.")
	s.colorRequests = counter("colord_color_requests_total", "POST /v1/color requests.")
	s.colorErrors = counter("colord_color_errors_total", "POST /v1/color requests that failed.")
	s.mutateRequests = counter("colord_mutate_requests_total", "Mutation batches received.")
	s.mutateErrors = counter("colord_mutate_errors_total", "Mutation batches that failed.")
	s.mutateFallbacks = counter("colord_mutate_fallbacks_total", "Mutation batches repaired by a full recolor instead of the localized repair.")
	s.cacheInvalidations = counter("colord_cache_invalidations_total", "Cached colorings purged by mutations, received batches and recolor adoptions.")
	s.persistErrors = counter("colord_persist_errors_total", "Batches or registrations the store failed to make durable.")
	s.compactRequests = counter("colord_compact_requests_total", "POST /v1/admin/compact requests.")
	s.clusterProxied = counter("colord_cluster_proxied_total", "Requests proxied to another node.")
	s.clusterReplicated = counter("colord_cluster_replicated_batches_total", "Mutation batches a replica acknowledged.")
	s.clusterReplErrors = counter("colord_cluster_replication_errors_total", "Replication, recolor and quality fan-out calls a peer failed.")
	s.clusterHopRejections = counter("colord_cluster_hop_rejections_total", "Forwarded requests refused a second hop.")
	s.clusterCatchups = counter("colord_cluster_catchup_batches_total", "Batches replayed from a peer's WAL tail.")
	s.clusterLeaseRenewals = counter("colord_cluster_lease_renewals_total", "Primary write leases granted or renewed.")
	s.clusterLeaseFenced = counter("colord_cluster_lease_fenced_total", "Writes refused for lack of a primary lease.")
	s.clusterResyncs = counter("colord_cluster_resyncs_total", "Graphs reset onto a peer's snapshot.")
	s.clusterKeyHomeServes = counter("colord_cluster_key_home_serves_total", "Color reads served as the key's home.")
	s.clusterKeyLocalHits = counter("colord_cluster_key_local_hits_total", "Color reads served off-home from the local cache.")
}

// writeProm renders the node's Prometheus view: the stored counters and
// histograms of s.met.reg, then every other value of one SnapshotMetrics
// (promRegistry), so a scrape reads each owner once and matches its JSON
// document.
func (s *Server) writeProm(w io.Writer) {
	s.met.reg.WriteProm(w)
	m := s.SnapshotMetrics()
	m.promRegistry().WriteProm(w)
}

// promRegistry renders the values m read off their owners (cache, job
// manager, pool, store, cluster view, quality tracker) as typed
// families; the per-graph quality families carry one series per tracked
// graph, labeled by its name, so graphs whose names differ only in
// punctuation or case keep their own series.
func (m *Metrics) promRegistry() *obs.Registry {
	r := obs.NewRegistry()
	add := func(name, help string, labels []string, samples ...obs.Sample) {
		r.NewFunc(name, help, promType(name), labels, func() []obs.Sample { return samples })
	}
	v := func(name, help string, x float64) { add(name, help, nil, obs.Sample{Value: x}) }
	v("colord_uptime_seconds", "Seconds since the server started.", m.UptimeSeconds)
	v("colord_graphs", "Registered graphs.", float64(m.Graphs))
	v("colord_cache_hits_total", "Result cache hits.", float64(m.Cache.Hits))
	v("colord_cache_misses_total", "Result cache misses.", float64(m.Cache.Misses))
	v("colord_cache_evictions_total", "Result cache evictions.", float64(m.Cache.Evictions))
	v("colord_cache_entries", "Colorings in the result cache.", float64(m.Cache.Entries))
	v("colord_cache_capacity", "Result cache capacity in entries.", float64(m.Cache.Capacity))
	v("colord_cache_hit_rate", "Result cache hits over lookups.", m.CacheHitRate)
	v("colord_jobs_max_inflight", "Inflight coloring slots.", float64(m.Jobs.MaxInflight))
	v("colord_jobs_inflight", "Coloring slots held.", float64(m.Jobs.Inflight))
	v("colord_jobs_completed_total", "Coloring jobs completed.", float64(m.Jobs.Completed))
	v("colord_jobs_cancelled_total", "Coloring jobs cancelled by a deadline or a client.", float64(m.Jobs.Cancelled))
	v("colord_jobs_failed_total", "Coloring jobs failed.", float64(m.Jobs.Failed))
	v("colord_jobs_coalesced_total", "Requests served by an identical in-flight run.", float64(m.Jobs.Coalesced))
	v("colord_pool_forks_total", "Fork-join regions that forked.", float64(m.Pool.Forks))
	v("colord_pool_dispatches_total", "Blocks handed to parked pool workers.", float64(m.Pool.Dispatches))
	v("colord_pool_inline_blocks_total", "Blocks the forking goroutine ran itself.", float64(m.Pool.InlineBlocks))
	v("colord_pool_seq_cutoff_hits_total", "Parallel calls run inline under the sequential grain.", float64(m.Pool.SeqCutoffHits))
	v("colord_pool_workers", "Worker pool size.", float64(m.PoolWorkers))
	v("colord_go_max_procs", "GOMAXPROCS.", float64(m.GoMaxProcs))
	v("colord_hist_merge_mismatches_total", "Histogram snapshots left out of a merge: mismatched bucket layouts or malformed peer snapshots.", float64(m.HistMergeMismatches))
	if st := m.Store; st != nil {
		v("colord_store_graphs", "Persisted graphs.", float64(st.Graphs))
		v("colord_store_snapshots", "Persisted graphs with a snapshot.", float64(st.Snapshots))
		v("colord_store_snapshot_bytes", "Bytes of the live snapshots.", float64(st.SnapshotBytes))
		v("colord_store_wal_bytes", "Bytes of the WALs.", float64(st.WALBytes))
		v("colord_store_wal_records", "Records in the WALs.", float64(st.WALRecords))
		v("colord_store_wal_appends_total", "WAL appends.", float64(st.WALAppends))
		v("colord_store_compactions_total", "Compactions committed.", float64(st.Compactions))
		v("colord_store_recovered_graphs", "Graphs recovered at boot.", float64(st.RecoveredGraphs))
		v("colord_store_replayed_batches", "WAL batches replayed at boot.", float64(st.ReplayedBatches))
		v("colord_store_truncated_wals", "WALs whose torn tail was cut at boot.", float64(st.TruncatedWALs))
	}
	if c := m.Cluster; c != nil {
		v("colord_cluster_nodes", "Cluster members.", float64(c.Nodes))
		v("colord_cluster_replicas", "Placement set size per graph.", float64(c.Replicas))
		v("colord_cluster_epoch", "Membership epoch.", float64(c.Epoch))
	}
	q := m.Quality
	v("colord_quality_enabled", "Whether the background recolor worker runs (1) or not (0).", boolValue(q.Enabled))
	v("colord_quality_cycles_total", "Recolor worker wakeups that swept.", float64(q.Cycles))
	v("colord_quality_skipped_cycles_total", "Recolor worker wakeups skipped because jobs were inflight.", float64(q.SkippedCycles))
	v("colord_quality_passes_total", "Iterated-greedy passes run.", float64(q.Passes))
	v("colord_quality_improvements_total", "Recolor improvements adopted.", float64(q.Improvements))
	v("colord_recolor_colors_saved_total", "Colors removed from maintained colorings by adopted recolor improvements.", float64(q.ColorsSaved))
	graph := func(name, help string, x func(quality.State) float64) {
		var samples []obs.Sample
		for g, st := range q.Graphs {
			samples = append(samples, obs.Sample{Labels: []string{g}, Value: x(st)})
		}
		add(name, help, []string{"graph"}, samples...)
	}
	graph("colord_graph_quality_colors", "Maintained coloring's distinct color count by graph.", func(st quality.State) float64 { return float64(st.Colors) })
	graph("colord_graph_quality_initial_colors", "Distinct color count at the graph's first observation.", func(st quality.State) float64 { return float64(st.InitialColors) })
	graph("colord_graph_quality_target_colors", "targetColors quality objective by graph (0: none).", func(st quality.State) float64 { return float64(st.TargetColors) })
	graph("colord_graph_quality_version", "Graph version the color count was observed at.", func(st quality.State) float64 { return float64(st.Version) })
	graph("colord_graph_quality_passes_total", "Iterated-greedy passes run by graph.", func(st quality.State) float64 { return float64(st.Passes) })
	graph("colord_graph_quality_improvements_total", "Recolor improvements adopted by graph.", func(st quality.State) float64 { return float64(st.Improvements) })
	graph("colord_graph_quality_colors_saved_total", "Colors removed by adopted recolor improvements by graph.", func(st quality.State) float64 { return float64(st.ColorsSaved) })
	graph("colord_graph_quality_last_pass_timestamp_seconds", "Unix time of the graph's last recolor pass (0: never).", func(st quality.State) float64 { return float64(st.LastPassUnix) })
	graph("colord_graph_quality_last_improvement_timestamp_seconds", "Unix time of the graph's last adopted improvement (0: never).", func(st quality.State) float64 { return float64(st.LastImprovementUnix) })
	graph("colord_graph_quality_slo_met", "Whether the graph's quality SLO is met (1) or not (0).", func(st quality.State) float64 { return boolValue(st.Met()) })
	return r
}

// promType is the exposition type a family's name implies.
func promType(name string) string {
	if strings.HasSuffix(name, "_total") {
		return "counter"
	}
	return "gauge"
}

// boolValue is a flag's sample value: 1 for true, 0 for false.
func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// httpSnapshots merges the per-(endpoint, class) series into one
// snapshot per endpoint — the per-endpoint server-side latency view
// colorload diffs across a run.
func (m *serverMetrics) httpSnapshots() map[string]obs.HistogramSnapshot {
	out := make(map[string]obs.HistogramSnapshot)
	for k, s := range m.httpDur.Snapshots() {
		ep := k
		if i := strings.LastIndexByte(k, ','); i >= 0 {
			ep = k[:i]
		}
		out[ep] = out[ep].Merge(s)
	}
	return out
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
