package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/obs"
)

// GET /v1/cluster/metrics: one cluster-level metrics document from any
// node. The serving node fans out to every peer's /metrics (bounded
// timeout, one internal retry), merges the per-endpoint latency
// histogram snapshots bucket-by-bucket (obs.HistogramSnapshot.Merge —
// quantiles computed from the merged buckets are consistent with the
// union of the nodes' observations, not an average of averages), sums
// the counters, and reports both the aggregate and the per-node
// breakdown. Works single-node too (a one-node cluster of itself), so
// dashboards scrape the same shape everywhere. ?format=prom renders
// the aggregate as typed colord_cluster_aggregate_* families.

// clusterNodeMetrics is one node's slot in the fan-out result: its
// full metrics document, or the error that kept it out of the
// aggregate (down peers are reported, never silently dropped).
type clusterNodeMetrics struct {
	Node    string   `json:"node"`
	Error   string   `json:"error,omitempty"`
	Metrics *Metrics `json:"metrics,omitempty"`
}

// latencySummary is one endpoint's merged latency quantiles in
// seconds, computed from the cluster-merged histogram.
type latencySummary struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// clusterSums is the table the cluster aggregate is summed by: each
// row is one node value, under its key in the JSON aggregate and its
// series in the Prometheus exposition. On a cluster each recolor
// improvement is adopted once per holder (primary + replicas), so
// qualityColorsSaved measures adoption work done, not distinct
// improvements.
var clusterSums = []struct {
	key, name string
	field     func(m *Metrics) int64
}{
	{"requests", "colord_cluster_aggregate_requests_total", func(m *Metrics) int64 { return m.Requests }},
	{"graphUploads", "colord_cluster_aggregate_graph_uploads_total", func(m *Metrics) int64 { return m.GraphUploads }},
	{"colorRequests", "colord_cluster_aggregate_color_requests_total", func(m *Metrics) int64 { return m.ColorRequests }},
	{"colorErrors", "colord_cluster_aggregate_color_errors_total", func(m *Metrics) int64 { return m.ColorErrors }},
	{"mutateRequests", "colord_cluster_aggregate_mutate_requests_total", func(m *Metrics) int64 { return m.MutateRequests }},
	{"mutateErrors", "colord_cluster_aggregate_mutate_errors_total", func(m *Metrics) int64 { return m.MutateErrors }},
	{"mutateFallbacks", "colord_cluster_aggregate_mutate_fallbacks_total", func(m *Metrics) int64 { return m.MutateFallbacks }},
	{"cacheInvalidations", "colord_cluster_aggregate_cache_invalidations_total", func(m *Metrics) int64 { return m.CacheInvalidations }},
	{"cacheHits", "colord_cluster_aggregate_cache_hits_total", func(m *Metrics) int64 { return m.Cache.Hits }},
	{"cacheMisses", "colord_cluster_aggregate_cache_misses_total", func(m *Metrics) int64 { return m.Cache.Misses }},
	{"cacheEvictions", "colord_cluster_aggregate_cache_evictions_total", func(m *Metrics) int64 { return m.Cache.Evictions }},
	{"cacheEntries", "colord_cluster_aggregate_cache_entries", func(m *Metrics) int64 { return int64(m.Cache.Entries) }},
	{"persistErrors", "colord_cluster_aggregate_persist_errors_total", func(m *Metrics) int64 { return m.PersistErrors }},
	{"compactRequests", "colord_cluster_aggregate_compact_requests_total", func(m *Metrics) int64 { return m.CompactRequests }},
	{"qualityPasses", "colord_cluster_aggregate_quality_passes_total", func(m *Metrics) int64 { return m.qualityOrZero().Passes }},
	{"qualityImprovements", "colord_cluster_aggregate_quality_improvements_total", func(m *Metrics) int64 { return m.qualityOrZero().Improvements }},
	{"qualityColorsSaved", "colord_cluster_aggregate_quality_colors_saved_total", func(m *Metrics) int64 { return m.qualityOrZero().ColorsSaved }},
	{"histMergeMismatches", "colord_cluster_aggregate_hist_merge_mismatches_total", func(m *Metrics) int64 { return m.HistMergeMismatches }},
}

// qualityOrZero is m's quality block, zero when a peer's document
// carries none.
func (m *Metrics) qualityOrZero() QualityMetrics {
	if m.Quality == nil {
		return QualityMetrics{}
	}
	return *m.Quality
}

// clusterMetricsDoc is the GET /v1/cluster/metrics response.
type clusterMetricsDoc struct {
	Self  string `json:"self"`
	Epoch uint64 `json:"epoch,omitempty"`
	// NodesTotal counts cluster members; NodesReporting counts those
	// whose metrics made it into the aggregate this scrape.
	NodesTotal     int                  `json:"nodesTotal"`
	NodesReporting int                  `json:"nodesReporting"`
	Nodes          []clusterNodeMetrics `json:"nodes"`
	// Aggregate holds every clusterSums key with its sum, httpLatency
	// with the merged histograms, and latencySummary with their
	// p50/p95/p99 (present only for endpoints with observations —
	// quantiles of an empty histogram are undefined, and NaN has no
	// JSON encoding).
	Aggregate map[string]any `json:"aggregate"`
}

// fetchPeerMetrics scrapes one peer's /metrics JSON document over the
// replication client (its bounded timeout), with the standard internal
// retry policy.
func (s *Server) fetchPeerMetrics(peer string) (*Metrics, error) {
	var m Metrics
	err := internalRetry.Do(context.Background(), func(context.Context) error {
		resp, err := s.cl.replClient.Get(peer + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		m = Metrics{}
		return json.Unmarshal(body, &m)
	})
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// buildClusterMetrics assembles the document: concurrent peer scrapes,
// then a deterministic fold in node order.
func (s *Server) buildClusterMetrics() clusterMetricsDoc {
	doc := clusterMetricsDoc{Self: s.node}
	var nodes []string
	if s.cl != nil {
		c := s.cl.c
		doc.Self = c.Self()
		doc.Epoch = c.Epoch()
		nodes = c.Nodes()
	} else {
		nodes = []string{s.node}
	}
	doc.NodesTotal = len(nodes)
	doc.Nodes = make([]clusterNodeMetrics, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		doc.Nodes[i].Node = node
		if s.cl == nil || node == s.cl.c.Self() {
			m := s.SnapshotMetrics()
			doc.Nodes[i].Metrics = &m
			continue
		}
		if !s.cl.c.Alive(node) {
			doc.Nodes[i].Error = "peer marked down"
			continue
		}
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			m, err := s.fetchPeerMetrics(peer)
			if err != nil {
				doc.Nodes[i].Error = err.Error()
				s.cl.c.ReportFailure(peer, err)
				return
			}
			s.cl.c.ReportSuccess(peer)
			doc.Nodes[i].Metrics = m
		}(i, node)
	}
	wg.Wait()

	sums, merged := make(map[string]int64, len(clusterSums)), make(map[string]obs.HistogramSnapshot)
	for _, n := range doc.Nodes {
		m := n.Metrics
		if m == nil {
			continue
		}
		doc.NodesReporting++
		for _, c := range clusterSums {
			sums[c.key] += c.field(m)
		}
		for ep, snap := range m.HTTPLatency {
			// A peer on another build or a hand-made document may send
			// a snapshot whose quantiles are undefined: it stays out,
			// counted in this node's histMergeMismatches.
			if !snap.Valid() {
				obs.CountMergeMismatch()
				continue
			}
			merged[ep] = merged[ep].Merge(snap)
		}
	}
	doc.Aggregate = make(map[string]any, len(clusterSums)+2)
	for _, c := range clusterSums {
		doc.Aggregate[c.key] = sums[c.key]
	}
	if len(merged) > 0 {
		summary := make(map[string]latencySummary, len(merged))
		for ep, snap := range merged {
			if snap.Count > 0 {
				summary[ep] = latencySummary{Count: snap.Count, P50: snap.Quantile(0.50), P95: snap.Quantile(0.95), P99: snap.Quantile(0.99)}
			}
		}
		doc.Aggregate["httpLatency"] = merged
		doc.Aggregate["latencySummary"] = summary
	}
	return doc
}

// registry renders the cluster document as typed families: the serving
// node's view of the membership, one family per clusterSums row and the
// merged latency histograms. latencySummary is their
// histogram_quantile; the per-node documents stay in the JSON shape and
// on each node's own /metrics.
func (doc clusterMetricsDoc) registry() *obs.Registry {
	r := obs.NewRegistry()
	value := func(name, help string, v int64) {
		r.NewFunc(name, help, promType(name), nil, func() []obs.Sample { return obs.Value(float64(v)) })
	}
	value("colord_cluster_epoch", "Membership epoch of the serving node.", int64(doc.Epoch))
	value("colord_cluster_nodes", "Cluster members.", int64(doc.NodesTotal))
	value("colord_cluster_nodes_reporting", "Members whose metrics this scrape aggregated.", int64(doc.NodesReporting))
	for _, c := range clusterSums {
		value(c.name, "The nodes' "+c.key+", summed over the reporting nodes.", doc.Aggregate[c.key].(int64))
	}
	merged, _ := doc.Aggregate["httpLatency"].(map[string]obs.HistogramSnapshot)
	r.NewFunc("colord_cluster_aggregate_http_request_duration_seconds", "HTTP request duration by endpoint, merged over the reporting nodes.", "histogram", []string{"endpoint"}, func() []obs.Sample {
		out := make([]obs.Sample, 0, len(merged))
		for ep, snap := range merged {
			out = append(out, obs.Sample{Labels: []string{ep}, Hist: snap})
		}
		return out
	})
	return r
}

// handleClusterMetrics serves GET /v1/cluster/metrics (JSON, or
// Prometheus exposition via ?format=prom / Accept: text/plain).
func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, fmt.Errorf("%w: %s on /v1/cluster/metrics (want GET)", ErrMethodNotAllowed, r.Method))
		return
	}
	doc := s.buildClusterMetrics()
	if wantsProm(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		doc.registry().WriteProm(w)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}
