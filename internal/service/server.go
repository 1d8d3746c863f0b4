package service

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"

	"repro/internal/graphio"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/quality"
	"repro/internal/store"
)

// maxUploadBytes bounds graph-upload POST bodies; maxColorBodyBytes
// bounds /v1/color request bodies (a ColorRequest is tiny).
const (
	maxUploadBytes    = 256 << 20
	maxColorBodyBytes = 1 << 20
)

// uploadLimits bounds what an uploaded payload may parse into. Tighter
// than graphio.DefaultLimits: a tiny body can declare a huge vertex
// space (the CSR costs memory per vertex, not per input byte), so an
// untrusted upload gets the same order of ceiling as the generator
// specs (2^24 vertices ≈ 128 MB of offsets, maxSpecEdges edges).
var uploadLimits = graphio.ParseLimits{MaxVertices: 1 << 24, MaxEdges: maxSpecEdges}

// Server wires the registry, cache and job manager behind the HTTP JSON
// API. Create with NewServer, mount via Handler. AttachStore makes the
// registry durable (see persist.go).
type Server struct {
	reg   *Registry
	mgr   *Manager
	mux   *http.ServeMux
	start time.Time
	st    *store.Store // nil: memory-only
	cl    *clusterState
	// bg tracks fire-and-forget background work (threshold-triggered
	// compactions); Close waits for it before unmapping snapshots.
	bg sync.WaitGroup

	// met is the obs layer: latency histograms wired through every hot
	// path, exposed via /metrics?format=prom. ring holds the last
	// completed request traces (/v1/debug/trace); node identifies this
	// process in traces, logs and /healthz; reqLog is the optional
	// sampled structured request logger.
	met    *serverMetrics
	ring   *obs.Ring
	node   string
	reqLog *requestLog

	// qtr tracks per-graph coloring quality against optional
	// targetColors objectives; qrun is the background recolor worker
	// (nil unless EnableRecolor ran). See quality.go.
	qtr  *quality.Tracker
	qrun *quality.Runner

	// Request counters: registry series (see registerCounters) that
	// SnapshotMetrics reads for the JSON document.
	requests           obs.Counter // every API request
	graphUploads       obs.Counter
	colorRequests      obs.Counter
	colorErrors        obs.Counter
	mutateRequests     obs.Counter
	mutateErrors       obs.Counter
	mutateFallbacks    obs.Counter
	cacheInvalidations obs.Counter
	persistErrors      obs.Counter
	compactRequests    obs.Counter

	clusterProxied       obs.Counter
	clusterReplicated    obs.Counter
	clusterReplErrors    obs.Counter
	clusterHopRejections obs.Counter
	clusterCatchups      obs.Counter
	clusterLeaseRenewals obs.Counter
	clusterLeaseFenced   obs.Counter
	clusterResyncs       obs.Counter
	clusterKeyHomeServes obs.Counter
	clusterKeyLocalHits  obs.Counter

	// faultAdmin gates /v1/admin/faults (colord's -fault-injection).
	faultAdmin atomic.Bool
}

// NewServer builds a Server with a fresh registry and manager.
func NewServer(cfg ManagerConfig) *Server {
	reg := NewRegistry()
	host, _ := os.Hostname()
	s := &Server{
		reg:   reg,
		mgr:   NewManager(reg, cfg),
		mux:   http.NewServeMux(),
		start: time.Now(),
		met:   newServerMetrics(),
		ring:  obs.NewRing(0),
		node:  host,
		qtr:   quality.NewTracker(),
	}
	s.mgr.met = s.met
	s.registerCounters()
	s.mux.HandleFunc("/v1/graphs", s.handleGraphs)
	s.mux.HandleFunc("/v1/graphs/", s.handleGraphSub)
	s.mux.HandleFunc("/v1/color", s.handleColor)
	s.mux.HandleFunc("/v1/color/bin", s.handleColorBin)
	s.mux.HandleFunc("/v1/admin/compact", s.handleAdminCompact)
	s.mux.HandleFunc("/v1/admin/faults", s.handleAdminFaults)
	s.mux.HandleFunc("/v1/internal/replicate", s.handleReplicate)
	s.mux.HandleFunc("/v1/internal/tail", s.handleTail)
	s.mux.HandleFunc("/v1/internal/version", s.handleVersion)
	s.mux.HandleFunc("/v1/internal/lease", s.handleLease)
	s.mux.HandleFunc("/v1/internal/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/v1/internal/recolor", s.handleRecolorInternal)
	s.mux.HandleFunc("/v1/cluster/status", s.handleClusterStatus)
	s.mux.HandleFunc("/v1/cluster/metrics", s.handleClusterMetrics)
	s.mux.HandleFunc("/v1/debug/trace", s.handleDebugTrace)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Registry exposes the graph registry (preloading, tests).
func (s *Server) Registry() *Registry { return s.reg }

// Manager exposes the job manager (tests).
func (s *Server) Manager() *Manager { return s.mgr }

// Handler returns the root HTTP handler: every request goes through
// the observability envelope (request-ID issue/propagation, duration
// histogram, span ring, sampled request log) before the mux dispatch.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		s.instrument(w, r)
	})
}

// apiError is the uniform error envelope every non-2xx response
// carries: the human-facing message, a machine-readable code (the
// stable field clients branch on — see errorCode) and, for the
// retryable classes, the server's own pacing estimate in milliseconds
// (mirroring the Retry-After header, which only has 1-second
// granularity).
type apiError struct {
	Error        string `json:"error"`
	Code         string `json:"code,omitempty"`
	RetryAfterMs int64  `json:"retryAfterMs,omitempty"`
}

// writeJSON pretty-prints — for the small curl-facing documents
// (healthz, metrics, graph info, errors).
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeJSONCompact skips indentation — for the serving hot path, where
// an includeColors response carries one array element per vertex and
// indent whitespace would roughly double the payload.
func writeJSONCompact(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps the service sentinel errors to HTTP statuses and
// renders the JSON error envelope. The 503 classes always carry a
// Retry-After header plus its millisecond mirror in the envelope, so
// every handler path that returns "not right now" paces its clients
// the same way (unavailable() sets a header first; a bare writeError
// with a 503-class error gets the 1-second default here).
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrConflict), errors.Is(err, ErrDiverged):
		status = http.StatusConflict
	case errors.Is(err, ErrMethodNotAllowed):
		status = http.StatusMethodNotAllowed
	case errors.Is(err, ErrUnavailable), errors.Is(err, ErrFenced):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrCancelled):
		// The run hit a deadline or the client went away. 504 is the
		// closest standard status for "the work was cut off".
		status = http.StatusGatewayTimeout
	}
	env := apiError{Error: err.Error(), Code: errorCode(err)}
	if status == http.StatusServiceUnavailable {
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
		if secs, perr := strconv.Atoi(w.Header().Get("Retry-After")); perr == nil && secs >= 0 {
			env.RetryAfterMs = int64(secs) * 1000
		}
	}
	writeJSON(w, status, env)
}

// graphUploadRequest is the POST /v1/graphs body: either a generator
// spec or an inline payload in a named format.
type graphUploadRequest struct {
	Name string `json:"name"`
	// Spec builds the graph from a deterministic generator ("kron:12").
	Spec string `json:"spec"`
	// Format + Data upload a graph inline: "edgelist" (SNAP/KONECT
	// "u v" lines), "dimacs" (p edge/col + e lines) or "mm"
	// (MatrixMarket coordinate pattern).
	Format string `json:"format"`
	Data   string `json:"data"`
	// TargetColors sets the graph's quality objective at registration
	// (0: none; settable later via PATCH /v1/graphs/{id}/quality). The
	// field rides the registration body, so the cluster fan-out
	// replicates it to the placement peers for free.
	TargetColors int `json:"targetColors,omitempty"`
}

// graphInfo is the JSON view of a registered graph. Persisted reports
// whether the graph survives a daemon restart (a data directory is
// attached and holds it) — the operator-facing signal on GET
// /v1/graphs for judging what a recovered daemon restored.
type graphInfo struct {
	Name      string  `json:"name"`
	Spec      string  `json:"spec"`
	Version   uint64  `json:"version"`
	N         int     `json:"n"`
	M         int64   `json:"m"`
	MaxDeg    int     `json:"maxDeg"`
	AvgDeg    float64 `json:"avgDeg"`
	MinDeg    int     `json:"minDeg"`
	Isolate   int     `json:"isolated"`
	Persisted bool    `json:"persisted"`
	// Cluster placement (present only on cluster members): the
	// rendezvous-first primary, the full placement set, and the home
	// node of the graph's ZERO cache key — a stable sample of the
	// key-routed read placement (each (algorithm, seed, epsilon) has
	// its own home inside the placement set; see keyroute.go).
	Primary   string   `json:"primary,omitempty"`
	Replicas  []string `json:"replicas,omitempty"`
	CacheHome string   `json:"cacheHome,omitempty"`
	// Quality summarizes the graph's coloring-quality state (present
	// once the quality tracker has seen a maintained coloring or an
	// objective; see /v1/graphs/{id}/quality for the full document).
	Quality *graphQualityInfo `json:"quality,omitempty"`
}

// graphQualityInfo is the compact quality summary on graph listings.
type graphQualityInfo struct {
	Colors       int    `json:"colors"`
	TargetColors int    `json:"targetColors,omitempty"`
	SLO          string `json:"slo"`
	ColorsSaved  int64  `json:"colorsSaved"`
	Passes       int64  `json:"passes"`
}

func (s *Server) infoOf(e *GraphEntry) graphInfo {
	st, ver := e.StatsVersion()
	info := graphInfo{
		Name:      e.Name,
		Spec:      e.Spec,
		Version:   ver,
		N:         st.N,
		M:         st.M,
		MaxDeg:    st.MaxDeg,
		AvgDeg:    st.AvgDeg,
		MinDeg:    st.MinDeg,
		Isolate:   st.Isolated,
		Persisted: s.st != nil && s.st.Has(e.Name),
	}
	if s.cl != nil {
		c := s.cl.c
		pl := c.Placement(e.Name)
		info.Primary = pl[0]
		info.Replicas = pl
		if home, ok := c.KeyHome(e.Name, 0); ok {
			info.CacheHome = home
		}
	}
	if st, ok := s.qtr.Get(e.Name); ok {
		info.Quality = &graphQualityInfo{
			Colors:       st.Colors,
			TargetColors: st.TargetColors,
			SLO:          st.SLO(),
			ColorsSaved:  st.ColorsSaved,
			Passes:       st.Passes,
		}
	}
	return info
}

// handleGraphs serves POST (register) and GET (list) on /v1/graphs.
func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		// Paginated: ?limit=N&offset=M over the name-sorted list (the
		// registry's sort is the stable order pagination needs), with
		// the pre-slicing total so clients can page to the end. No
		// limit returns everything — the PR-4 behavior.
		q := r.URL.Query()
		limit, offset := -1, 0
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeError(w, fmt.Errorf("%w: limit must be a non-negative integer", ErrBadRequest))
				return
			}
			limit = n
		}
		if v := q.Get("offset"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeError(w, fmt.Errorf("%w: offset must be a non-negative integer", ErrBadRequest))
				return
			}
			offset = n
		}
		list := s.reg.List()
		total := len(list)
		if offset > total {
			offset = total
		}
		list = list[offset:]
		if limit >= 0 && limit < len(list) {
			list = list[:limit]
		}
		infos := make([]graphInfo, len(list))
		for i, e := range list {
			infos[i] = s.infoOf(e)
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"graphs": infos,
			"total":  total,
			"offset": offset,
			"count":  len(infos),
		})
	case http.MethodPost:
		// Large edge lists compress an order of magnitude; accept
		// Content-Encoding: gzip and bound BOTH the compressed read and
		// the decompressed size (a tiny gzip bomb must not expand past
		// the same ceiling a plain body gets; what the bytes may parse
		// into is bounded separately by uploadLimits).
		reader := io.Reader(r.Body)
		if enc := r.Header.Get("Content-Encoding"); enc != "" {
			if !strings.EqualFold(enc, "gzip") {
				writeError(w, fmt.Errorf("%w: unsupported Content-Encoding %q (want gzip)", ErrBadRequest, enc))
				return
			}
			gz, err := gzip.NewReader(io.LimitReader(r.Body, maxUploadBytes+1))
			if err != nil {
				writeError(w, fmt.Errorf("%w: reading gzip body: %v", ErrBadRequest, err))
				return
			}
			defer gz.Close()
			reader = gz
		}
		// Read one byte past the limit so an oversized body is rejected
		// explicitly instead of being silently truncated into a
		// misleading JSON parse error.
		body, err := io.ReadAll(io.LimitReader(reader, maxUploadBytes+1))
		if err != nil {
			writeError(w, fmt.Errorf("%w: reading body: %v", ErrBadRequest, err))
			return
		}
		if len(body) > maxUploadBytes {
			writeError(w, fmt.Errorf("%w: body exceeds %d bytes", ErrBadRequest, maxUploadBytes))
			return
		}
		var req graphUploadRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, fmt.Errorf("%w: parsing JSON: %v", ErrBadRequest, err))
			return
		}
		// Registrations are writes: route to the graph's active primary
		// (body is forwarded decompressed — the Content-Encoding header
		// is not propagated).
		if s.routeWrite(w, r, req.Name, body) {
			return
		}
		entry, err := s.registerGraph(req)
		if err != nil {
			writeError(w, err)
			return
		}
		s.graphUploads.Add(1)
		// As the graph's primary, replicate the registration to the
		// placement peers (skipped for internal fan-out deliveries).
		if s.cl != nil && r.Header.Get(replicatedHeader) == "" && s.cl.c.IsActivePrimary(req.Name) {
			s.fanoutRegistration(req.Name, body, r.Header.Get(obs.RequestIDHeader))
		}
		writeJSON(w, http.StatusOK, s.infoOf(entry))
	default:
		writeError(w, fmt.Errorf("%w: %s on /v1/graphs (want GET or POST)", ErrMethodNotAllowed, r.Method))
	}
}

// registerGraph builds the graph from the upload request and registers it.
func (s *Server) registerGraph(req graphUploadRequest) (*GraphEntry, error) {
	// Resolve name collisions before paying the build cost: colorload
	// re-registers its target on every run, and a conflicting name must
	// not trigger a full (possibly GB-scale) generation just to fail.
	// CheckExisting is the same rule Registry.Add enforces.
	if req.TargetColors < 0 {
		return nil, fmt.Errorf("%w: targetColors must be >= 0", ErrBadRequest)
	}
	setTarget := func(e *GraphEntry) {
		if req.TargetColors > 0 {
			s.qtr.SetTarget(req.Name, req.TargetColors)
		}
	}
	if old, err := s.reg.CheckExisting(req.Name, req.Spec); err != nil {
		return nil, err
	} else if old != nil {
		setTarget(old)
		return old, nil
	}
	add := func(spec string, g *graph.Graph, isUpload bool) (*GraphEntry, error) {
		e, err := s.reg.Add(req.Name, spec, g)
		if err != nil {
			return nil, err
		}
		// Persist after the in-memory registration wins the race: the
		// store's Register is idempotent, and a persist failure degrades
		// durability (gauged) without refusing to serve from memory.
		if perr := s.persistRegistration(e, isUpload); perr != nil {
			fmt.Fprintf(os.Stderr, "service: persisting graph %q: %v\n", req.Name, perr)
		}
		setTarget(e)
		return e, nil
	}
	switch {
	case req.Spec != "" && req.Data != "":
		return nil, fmt.Errorf("%w: give either spec or data, not both", ErrBadRequest)
	case req.Spec != "":
		g, err := BuildSpec(req.Spec)
		if err != nil {
			return nil, err
		}
		return add(req.Spec, g, false)
	case req.Data != "":
		rd := strings.NewReader(req.Data)
		switch req.Format {
		case "edgelist":
			g, err := graphio.ReadEdgeListLimits(rd, uploadLimits)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			return add("upload:edgelist", g, true)
		case "dimacs":
			g, err := graphio.ReadDIMACSColorLimits(rd, uploadLimits)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			return add("upload:dimacs", g, true)
		case "mm":
			g, err := graphio.ReadMatrixMarketLimits(rd, uploadLimits)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			return add("upload:mm", g, true)
		default:
			return nil, fmt.Errorf("%w: unknown format %q (want edgelist|dimacs|mm)", ErrBadRequest, req.Format)
		}
	default:
		return nil, fmt.Errorf("%w: need spec or format+data", ErrBadRequest)
	}
}

// handleColor serves POST /v1/color. The request context carries client
// disconnects; the manager layers the per-request deadline on top.
func (s *Server) handleColor(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, fmt.Errorf("%w: %s on /v1/color (want POST)", ErrMethodNotAllowed, r.Method))
		return
	}
	s.colorRequests.Add(1)
	body, err := io.ReadAll(io.LimitReader(r.Body, maxColorBodyBytes+1))
	if err != nil {
		s.colorErrors.Add(1)
		writeError(w, fmt.Errorf("%w: reading body: %v", ErrBadRequest, err))
		return
	}
	if len(body) > maxColorBodyBytes {
		s.colorErrors.Add(1)
		writeError(w, fmt.Errorf("%w: body exceeds %d bytes", ErrBadRequest, maxColorBodyBytes))
		return
	}
	var req ColorRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.colorErrors.Add(1)
		writeError(w, fmt.Errorf("%w: parsing JSON: %v", ErrBadRequest, err))
		return
	}
	// Colorings are reads, routed by CACHE KEY rather than by graph:
	// each (graph, algorithm, seed, epsilon) has one home node inside
	// the placement set that computes and caches it (see keyroute.go);
	// off-home placement members answer from their local cache when
	// the key is resident and proxy to the home otherwise.
	if s.routeColorRead(w, r, req, body, func(w http.ResponseWriter, resp *ColorResponse) {
		writeJSONCompact(w, http.StatusOK, resp)
	}) {
		return
	}
	resp, err := s.mgr.Color(r.Context(), req)
	if err != nil {
		s.colorErrors.Add(1)
		writeError(w, err)
		return
	}
	s.setCacheHint(w, req, resp.Cached || resp.Coalesced)
	writeJSONCompact(w, http.StatusOK, resp)
}

// buildInfo resolves the binary's identity once: Go toolchain, module
// version and the VCS revision/time stamped by `go build` when the
// repo metadata is available (test binaries report neither).
var buildInfo = func() (bi struct {
	GoVersion string `json:"goVersion"`
	Revision  string `json:"revision,omitempty"`
	BuildTime string `json:"buildTime,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}) {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	bi.GoVersion = info.GoVersion
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			bi.Revision = kv.Value
		case "vcs.time":
			bi.BuildTime = kv.Value
		case "vcs.modified":
			bi.Modified = kv.Value == "true"
		}
	}
	return bi
}()

// handleHealthz reports liveness plus the node's identity and build
// provenance, so cluster members are tellable apart from probes alone.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.start).Seconds(),
		"node":          s.node,
		"build":         buildInfo,
	})
}

// Metrics is the GET /metrics document: request counters, cache hit
// rate, job-manager state and the persistent pool's scheduling counters
// (the PR-1 instrumentation, now visible per process instead of per
// benchmark run).
type Metrics struct {
	UptimeSeconds  float64 `json:"uptimeSeconds"`
	Requests       int64   `json:"requests"`
	GraphUploads   int64   `json:"graphUploads"`
	ColorRequests  int64   `json:"colorRequests"`
	ColorErrors    int64   `json:"colorErrors"`
	MutateRequests int64   `json:"mutateRequests"`
	MutateErrors   int64   `json:"mutateErrors"`
	// MutateFallbacks counts batches whose dirty region exceeded the
	// threshold and triggered a full recolor instead of the localized
	// repair; CacheInvalidations counts cached colorings purged by
	// mutations.
	MutateFallbacks    int64         `json:"mutateFallbacks"`
	CacheInvalidations int64         `json:"cacheInvalidations"`
	Graphs             int           `json:"graphs"`
	Algorithms         []string      `json:"algorithms"`
	Cache              CacheStats    `json:"cache"`
	CacheHitRate       float64       `json:"cacheHitRate"`
	Jobs               ManagerStats  `json:"jobs"`
	Pool               par.PoolStats `json:"pool"`
	PoolWorkers        int           `json:"poolWorkers"`
	GoMaxProcs         int           `json:"goMaxProcs"`
	// Store carries the persistence gauges (snapshot/WAL sizes, append,
	// compaction and recovery counters) when a data directory is
	// attached; PersistErrors counts batches or registrations the store
	// failed to make durable (the daemon keeps serving from memory).
	Store           *store.Stats `json:"store,omitempty"`
	PersistErrors   int64        `json:"persistErrors"`
	CompactRequests int64        `json:"compactRequests"`
	// Cluster carries the routing/replication counters when this node
	// is a member of a multi-node cluster.
	Cluster *ClusterMetrics `json:"cluster,omitempty"`
	// Quality carries the quality-SLO engine's state: worker cycle
	// counters, pass/improvement totals and the per-graph quality map.
	Quality *QualityMetrics `json:"quality,omitempty"`
	// HistMergeMismatches counts histogram snapshot merges that met
	// mismatched bucket layouts (the receiver's snapshot won) — nonzero
	// means some aggregated latency view silently dropped a side.
	HistMergeMismatches int64 `json:"histMergeMismatches"`
	// HTTPLatency carries the per-endpoint server-side request-duration
	// histogram snapshots (classes merged). colorload diffs two scrapes
	// to print the server's own p50/p95/p99 for just its run.
	HTTPLatency map[string]obs.HistogramSnapshot `json:"httpLatency,omitempty"`
}

// SnapshotMetrics builds the current Metrics document.
func (s *Server) SnapshotMetrics() Metrics {
	cs := s.mgr.Cache().Stats()
	m := Metrics{
		UptimeSeconds:      time.Since(s.start).Seconds(),
		Requests:           s.requests.Value(),
		GraphUploads:       s.graphUploads.Value(),
		ColorRequests:      s.colorRequests.Value(),
		ColorErrors:        s.colorErrors.Value(),
		MutateRequests:     s.mutateRequests.Value(),
		MutateErrors:       s.mutateErrors.Value(),
		MutateFallbacks:    s.mutateFallbacks.Value(),
		CacheInvalidations: s.cacheInvalidations.Value(),
		Graphs:             s.reg.Len(),
		Algorithms:         harness.Names(),
		Cache:              cs,
		CacheHitRate:       cs.HitRate(),
		Jobs:               s.mgr.Stats(),
		Pool:               par.DefaultPoolStats(),
		PoolWorkers:        par.Default().Procs(),
		GoMaxProcs:         runtime.GOMAXPROCS(0),
	}
	m.Jobs.RunsByProcs = s.met.jobRuns.Values()
	m.PersistErrors = s.persistErrors.Value()
	m.CompactRequests = s.compactRequests.Value()
	if s.st != nil {
		st := s.st.Stats()
		m.Store = &st
	}
	if s.cl != nil {
		m.Cluster = &ClusterMetrics{
			Self:              s.cl.c.Self(),
			Nodes:             len(s.cl.c.Nodes()),
			Replicas:          s.cl.c.Replicas(),
			Epoch:             s.cl.c.Epoch(),
			Proxied:           s.clusterProxied.Value(),
			ReplicatedBatches: s.clusterReplicated.Value(),
			ReplicationErrors: s.clusterReplErrors.Value(),
			HopRejections:     s.clusterHopRejections.Value(),
			CatchupBatches:    s.clusterCatchups.Value(),
			LeaseRenewals:     s.clusterLeaseRenewals.Value(),
			LeaseFenced:       s.clusterLeaseFenced.Value(),
			Resyncs:           s.clusterResyncs.Value(),
			KeyHomeServes:     s.clusterKeyHomeServes.Value(),
			KeyLocalHits:      s.clusterKeyLocalHits.Value(),
		}
	}
	m.Quality = s.qualityMetrics()
	m.HistMergeMismatches = obs.MergeMismatches()
	m.HTTPLatency = s.met.httpSnapshots()
	return m
}

// handleAdminCompact serves POST /v1/admin/compact: synchronously fold
// the WAL of the named graph (or of every persisted graph when the
// body names none) into a fresh snapshot. The operator hook for
// bounding recovery time before a planned restart, and the test hook
// for exercising the compaction path deterministically.
func (s *Server) handleAdminCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, fmt.Errorf("%w: %s on /v1/admin/compact (want POST)", ErrMethodNotAllowed, r.Method))
		return
	}
	s.compactRequests.Add(1)
	if s.st == nil {
		writeError(w, fmt.Errorf("%w: no data directory attached", ErrBadRequest))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxColorBodyBytes))
	if err != nil {
		writeError(w, fmt.Errorf("%w: reading body: %v", ErrBadRequest, err))
		return
	}
	var req adminCompactRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, fmt.Errorf("%w: parsing JSON: %v", ErrBadRequest, err))
			return
		}
	}
	var targets []string
	if req.Graph != "" {
		targets = []string{req.Graph}
	} else {
		for _, e := range s.reg.List() {
			targets = append(targets, e.Name)
		}
	}
	resp := adminCompactResponse{Compacted: []string{}}
	for _, name := range targets {
		if req.Graph == "" && !s.st.Has(name) {
			continue // enumerated graph that never became durable
		}
		folded, err := s.compactGraph(name)
		switch {
		case err != nil:
			// A single named graph keeps the plain error response; in
			// compact-all mode one bad graph must not discard the outcome
			// of the graphs already folded — the operator needs the full
			// per-graph picture before a planned restart.
			if req.Graph != "" {
				writeError(w, fmt.Errorf("compacting %q: %w", name, err))
				return
			}
			if resp.Failed == nil {
				resp.Failed = make(map[string]string)
			}
			resp.Failed[name] = err.Error()
		case folded:
			resp.Compacted = append(resp.Compacted, name)
		default:
			resp.Skipped = append(resp.Skipped, name)
		}
	}
	resp.Store = s.st.Stats()
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the metrics document in two negotiated shapes:
// the JSON snapshot (unchanged — existing clients and tests), or
// Prometheus text exposition when the client asks via ?format=prom or
// Accept: text/plain. obs registries render the exposition alone:
// every JSON value has its typed family there (see writeProm).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsProm(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.writeProm(w)
		return
	}
	writeJSON(w, http.StatusOK, s.SnapshotMetrics())
}

// wantsProm reports whether a metrics request asks for Prometheus text
// exposition rather than JSON.
func wantsProm(r *http.Request) bool {
	return r.URL.Query().Get("format") == "prom" || strings.Contains(r.Header.Get("Accept"), "text/plain")
}
