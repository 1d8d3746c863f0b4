package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dynamic"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/retry"
)

// Cluster wiring: an optional cluster.Cluster behind the server turns
// this colord process into one member of a sharded multi-node service.
// The split of responsibilities:
//
//   - internal/cluster owns membership, liveness and rendezvous
//     placement (who holds which graph, who accepts its writes);
//   - this file owns routing (a node transparently proxies requests
//     for graphs it does not hold to the active primary, with a hop
//     guard), replication (the active primary streams every applied
//     batch to its replicas — synchronously, before the client ack,
//     so a kill -9 of the primary loses no acknowledged mutation),
//     and catch-up (a promoted or rejoining node syncs from its peers
//     before accepting writes; until then writes get 503 +
//     Retry-After).
//
// Replication reuses the store's WAL machinery end to end: the batch
// payload on the wire is the dynamic.Batch binary codec (the WAL's
// record payload), replicas apply through the same entry.Mutate-style
// path under the entry lock and append to their own WAL before acking,
// so a replica's on-disk state is record-for-record compatible with
// the primary's, and the tail feed for catch-up is a plain WAL read
// (store.TailRecords).
//
// Self-healing (see resync.go): every gap, fork or missed registration
// heals through one path, syncFrom — a WAL tail replay when the tail
// extends the local chain, a reset to the peer's base (spec or
// snapshot) plus the tail otherwise. A same-version fork (failback
// race inside one probe interval — which the lease protocol prevents
// for majority-alive clusters) is detected by the per-batch hash
// carried on the replication stream and surfaces as a "diverged"
// replica in /v1/cluster/status rather than being silently merged; it
// heals automatically once one side moves ahead.

// Cluster HTTP headers. Forwarded marks a proxied client request (the
// hop guard: a forwarded request is never forwarded again); Replicated
// marks internal fan-out (registration replication) that must be
// handled locally without further routing.
const (
	forwardedHeader  = "X-Colord-Forwarded"
	replicatedHeader = "X-Colord-Replicated"
)

// maxReplicateBodyBytes bounds one replication POST. It must admit
// every batch the mutate path can ack: a client batch is capped at
// maxMutateBodyBytes (8 MB) of JSON, whose binary codec re-encoding
// is of the same order but whose base64-in-JSON envelope inflates it
// by 4/3 — so the replicate body for a maximal legal batch can EXCEED
// maxMutateBodyBytes. Capping at the mutate limit would make replicas
// reject exactly the largest acked batches (silently un-replicating
// them); 64 MB leaves an order-of-magnitude margin while still
// bounding a malicious internal POST.
const maxReplicateBodyBytes = 64 << 20

// DefaultReplicationTimeout bounds one synchronous replication POST
// (and one catch-up tail fetch). It runs under the graph entry's
// mutation lock, so it also bounds how long a dead-but-not-yet-marked
// replica can stall one graph's write path.
const DefaultReplicationTimeout = 15 * time.Second

// DefaultProxyTimeout bounds one proxied client request end to end —
// across every internal retry and target re-resolution — so a client
// request cannot outlive its deadline just because the cluster is
// failing over underneath it.
const DefaultProxyTimeout = 60 * time.Second

// proxyAttempts bounds how many targets one proxied request tries: the
// original resolution plus re-resolutions after transport failures
// have fed the liveness state (a dead primary is demoted by the failed
// attempt itself, so the re-resolution sees the promoted replica).
const proxyAttempts = 3

// internalRetry is the bounded retry cluster-internal RPCs apply to
// transient transport failures: one re-attempt after a short jittered
// backoff. Kept deliberately tight — replication and catch-up run
// under the graph entry's mutation lock, so every extra attempt is
// write-path stall budget.
var internalRetry = retry.Policy{
	Attempts:  2,
	BaseDelay: 50 * time.Millisecond,
	MaxDelay:  500 * time.Millisecond,
	Jitter:    0.2,
}

// clusterState is the service-side cluster runtime.
type clusterState struct {
	c *cluster.Cluster
	// proxyClient forwards client requests (per-request deadline:
	// proxyTimeout layered on the inbound context); replClient carries
	// replication and catch-up traffic under replTimeout. Both run over
	// the faultinject transport so a chaos schedule can partition,
	// delay or black-hole either traffic class.
	proxyClient  *http.Client
	replClient   *http.Client
	replTimeout  time.Duration
	proxyTimeout time.Duration

	mu sync.Mutex
	// watermarks[graph][peer] is the highest version peer has acked on
	// the replication stream; diverged[graph][peer] records a peer
	// whose version chain provably forked from ours (needs operator
	// attention / snapshot resync).
	watermarks map[string]map[string]uint64
	diverged   map[string]map[string]string

	// leaseMu guards leaseExp: the holder-side lease terms (see
	// lease.go). Separate from mu — lease renewal RPCs must not nest
	// inside the watermark lock.
	leaseMu  sync.Mutex
	leaseExp map[string]time.Time
}

// ClusterOptions tunes the service-side cluster runtime.
type ClusterOptions struct {
	// ReplicationTimeout bounds one synchronous replication POST or
	// catch-up tail fetch (<= 0 selects DefaultReplicationTimeout).
	ReplicationTimeout time.Duration
	// ProxyTimeout bounds one proxied client request end to end,
	// including internal retries and target re-resolution (<= 0
	// selects DefaultProxyTimeout).
	ProxyTimeout time.Duration
}

// AttachCluster mounts the cluster view behind the server. Call before
// serving. With no attached cluster every routing hook below is a
// no-op and the server behaves exactly like the single-node daemon of
// PR 4.
func (s *Server) AttachCluster(c *cluster.Cluster, opts ClusterOptions) {
	replTimeout := opts.ReplicationTimeout
	if replTimeout <= 0 {
		replTimeout = DefaultReplicationTimeout
	}
	proxyTimeout := opts.ProxyTimeout
	if proxyTimeout <= 0 {
		proxyTimeout = DefaultProxyTimeout
	}
	s.cl = &clusterState{
		c:            c,
		proxyClient:  &http.Client{Transport: faultinject.Transport(nil)},
		replClient:   &http.Client{Timeout: replTimeout, Transport: faultinject.Transport(nil)},
		replTimeout:  replTimeout,
		proxyTimeout: proxyTimeout,
		watermarks:   make(map[string]map[string]uint64),
		diverged:     make(map[string]map[string]string),
		leaseExp:     make(map[string]time.Time),
	}
	// Traces and request logs identify this process by its cluster URL
	// (more useful than the hostname shared by co-located test nodes).
	s.node = c.Self()
}

// Cluster returns the attached cluster view (nil when single-node).
func (s *Server) Cluster() *cluster.Cluster {
	if s.cl == nil {
		return nil
	}
	return s.cl.c
}

// batchHash is the per-batch fingerprint carried on the replication
// stream: hash of (version-after, batch codec bytes). Identical on
// every node that applied the same batch at the same version — and
// recomputable after a restart from the last WAL record alone — so
// comparing the sender's hash of version V-1 with the receiver's
// detects a forked chain at the write boundary without any shared
// history state.
func batchHash(version uint64, b *dynamic.Batch) uint64 {
	buf := make([]byte, 8, 64)
	binary.LittleEndian.PutUint64(buf, version)
	buf = b.AppendBinary(buf)
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

// unavailable writes a 503 with Retry-After — the "not right now"
// response of the routing layer (placement set down, catch-up in
// progress, routing views disagreeing mid-failover). An error that
// already classifies itself as a 503 (ErrUnavailable, or ErrFenced
// with its own envelope code) keeps its chain rather than being
// re-wrapped, so the envelope's code stays specific.
func unavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	if !errors.Is(err, ErrUnavailable) && !errors.Is(err, ErrFenced) {
		err = fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	writeError(w, err)
}

// routeWrite decides where a write for graph lands. Returns true when
// it wrote the response itself (proxied it, or rejected it); false
// means "handle locally". Writes always belong to the active primary:
// any other node proxies, a forwarded request that still lands on a
// non-primary is rejected (hop guard — two proxies disagreeing on
// ownership must not bounce a request around the cluster), and a
// placement set with no alive member is 503.
func (s *Server) routeWrite(w http.ResponseWriter, r *http.Request, graph string, body []byte) bool {
	if s.cl == nil {
		return false
	}
	c := s.cl.c
	if r.Header.Get(replicatedHeader) != "" {
		return false // internal fan-out: always local
	}
	if c.IsActivePrimary(graph) {
		return false
	}
	if from := r.Header.Get(forwardedHeader); from != "" {
		s.clusterHopRejections.Add(1)
		unavailable(w, fmt.Errorf("node %s is not the active primary for %q (forwarded from %s; membership views disagree mid-failover)",
			c.Self(), graph, from))
		return true
	}
	primary, ok := c.ActivePrimary(graph)
	if !ok {
		unavailable(w, fmt.Errorf("no alive node in the placement set of %q", graph))
		return true
	}
	s.proxy(w, r, graph, primary, body, nil)
	return true
}

// routeRead decides where a read for graph lands. A node that holds
// the graph serves it locally — placement replicas serve reads at
// their replicated version (responses carry graphVersion, and the
// cache keys on it, so a replica lagging by an in-flight batch serves
// a correct coloring of a recent version, never a wrong one). A node
// that does not hold the graph proxies to the active primary, or to
// any alive placement member when the primary seat is empty.
func (s *Server) routeRead(w http.ResponseWriter, r *http.Request, graph string, body []byte) bool {
	if s.cl == nil {
		return false
	}
	if _, err := s.reg.Get(graph); err == nil {
		return false // we hold it: serve locally
	}
	c := s.cl.c
	primary, ok := c.ActivePrimary(graph)
	if ok && primary == c.Self() {
		// We are the active primary and don't hold the graph. Either it
		// exists on our placement peers and we missed the registration
		// (down at the time — ensureSynced bootstraps it), or it exists
		// nowhere: fall through to local handling so the client gets the
		// same 404 single-node mode produces — a hop rejection or
		// self-proxy here would dress a permanent miss up as a
		// retryable 503.
		if _, err := s.ensureSynced(graph); err != nil && !errors.Is(err, ErrNotFound) {
			writeError(w, err)
			return true
		}
		return false
	}
	if from := r.Header.Get(forwardedHeader); from != "" {
		s.clusterHopRejections.Add(1)
		unavailable(w, fmt.Errorf("node %s does not hold %q (forwarded from %s)", c.Self(), graph, from))
		return true
	}
	if !ok {
		unavailable(w, fmt.Errorf("no alive node in the placement set of %q", graph))
		return true
	}
	s.proxy(w, r, graph, primary, body, nil)
	return true
}

// proxy forwards the request (with its already-read body) to target
// and relays the response verbatim. The whole exchange runs under a
// per-request deadline (proxyTimeout layered on the inbound context),
// so a forwarded request can never outlive the client's patience.
// Transport failures feed the liveness state — a crashed primary is
// demoted after FailAfter failed proxies, not after a probe interval —
// and then the target is RE-RESOLVED and retried inside the same
// client request: the failure that demoted the primary is the failure
// whose retry lands on the promoted replica, so a mid-failover client
// sees one slightly slower response instead of a 502. Only when every
// attempt fails does the client get 502 + Retry-After.
//
// resolve picks the retry target: nil selects the active primary (the
// write-path and graph-read rule); the key-routed color path passes
// its own resolver so a retry lands on the key's NEXT home — the same
// node every other proxy re-resolving that key picks.
func (s *Server) proxy(w http.ResponseWriter, r *http.Request, graph, target string, body []byte, resolve func() (string, bool)) {
	if resolve == nil {
		resolve = func() (string, bool) { return s.cl.c.ActivePrimary(graph) }
	}
	s.clusterProxied.Add(1)
	ctx := r.Context()
	if s.cl.proxyTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cl.proxyTimeout)
		defer cancel()
	}
	var lastErr error
	for attempt := 1; attempt <= proxyAttempts; attempt++ {
		if attempt > 1 {
			// Back off (context-bounded), then re-resolve: the failure
			// report above may have demoted the target and promoted a
			// replica in the same epoch bump.
			t := time.NewTimer(internalRetry.Delay(attempt-1, nil))
			select {
			case <-ctx.Done():
				t.Stop()
				lastErr = ctx.Err()
				attempt = proxyAttempts // exhausted: fall through to 502
				continue
			case <-t.C:
			}
			next, ok := resolve()
			if !ok {
				break
			}
			target = next
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, r.Method, target+r.URL.RequestURI(), rd)
		if err != nil {
			writeError(w, fmt.Errorf("%w: building proxy request: %v", ErrBadRequest, err))
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		req.Header.Set(forwardedHeader, s.cl.c.Self())
		// Propagate the correlation ID (the middleware stashed a
		// generated one on the inbound headers) so the hop shows up in
		// the target's span ring and logs under the same request ID.
		if reqID := r.Header.Get(obs.RequestIDHeader); reqID != "" {
			req.Header.Set(obs.RequestIDHeader, reqID)
		}
		hopStart := time.Now()
		resp, err := s.cl.proxyClient.Do(req)
		hop := time.Since(hopStart)
		s.met.proxyRTT.With(target).Observe(hop)
		obs.TraceFrom(ctx).AddSpan("proxy/"+target, hop.Seconds())
		if err != nil {
			s.cl.c.ReportFailure(target, err)
			lastErr = err
			if ctx.Err() != nil {
				break // deadline spent: another resolution cannot help
			}
			continue
		}
		defer resp.Body.Close()
		s.cl.c.ReportSuccess(target)
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		// Relay the cache placement hints: the client learns which node
		// is the key's home from the proxied response itself and can
		// send its next request for the key straight there.
		if ch := resp.Header.Get(cacheHeader); ch != "" {
			w.Header().Set(cacheHeader, ch)
		}
		if kh := resp.Header.Get(keyHomeHeader); kh != "" {
			w.Header().Set(keyHomeHeader, kh)
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
		return
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusBadGateway, apiError{
		Error:        fmt.Sprintf("proxying to %s: %v", target, lastErr),
		Code:         "unavailable",
		RetryAfterMs: 1000,
	})
}

// replicateRequest is the POST /v1/internal/replicate body: one
// applied batch, identified by the version it produced, carrying the
// hash of the previous batch (fork detection), the sender's peerState
// (version, fold point and spec: the evidence a gapped or forked
// replica syncs on) and the sender's base URL (where it syncs from).
type replicateRequest struct {
	Graph    string `json:"graph"`
	Version  uint64 `json:"version"`
	PrevHash uint64 `json:"prevHash"`
	Fold     uint64 `json:"fold"`
	Spec     string `json:"spec,omitempty"`
	From     string `json:"from"`
	// Batch is the dynamic.Batch binary codec (the WAL record payload
	// format), base64-encoded.
	Batch string `json:"batch"`
}

// replicateResponse reports the replica's version after handling the
// record — the ack watermark the primary records — and whether the
// record is durably logged there (false on a memory-only or
// persistence-degraded replica: the batch is applied, which is enough
// to survive a primary kill while the replica process lives, but NOT
// enough to survive the replica's own restart, so the primary must
// not advance its durability watermark on it).
type replicateResponse struct {
	Graph     string `json:"graph"`
	Version   uint64 `json:"version"`
	Persisted bool   `json:"persisted"`
	// Applied reports a FRESH apply of this exact record (false for an
	// idempotent re-ack of a version the replica already held). A fresh
	// apply proves the replica's chain extends ours — the signal the
	// primary uses to clear a sticky divergence record after the
	// replica resynced.
	Applied bool `json:"applied"`
}

// decodeWireBatch decodes the base64 dynamic.Batch codec bytes carried
// by the replication and tail wire formats.
func decodeWireBatch(b64 string) (dynamic.Batch, error) {
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return dynamic.Batch{}, err
	}
	return dynamic.DecodeBatch(raw)
}

// replicateBatch streams one applied batch to every alive replica in
// the graph's placement set — it runs inside the entry's mutation
// lock, before the WAL append and the client ack, so an acknowledged
// batch is durable on every replica that was alive when it was acked
// (kill -9 of the primary then loses nothing that was acknowledged).
// The POSTs run concurrently (fanout), so the batch costs one
// replication round trip whatever the replica count. Each replica
// sees a graph's batches in version order: the entry lock keeps the
// next batch from starting until this fan-out has returned. Down
// replicas are skipped (they pull the tail on rejoin); failed or
// diverged replicas are recorded and skipped by the watermark. The
// replicate receive path is idempotent by version, so fanout's retry
// of a record the replica already applied is acked harmlessly. reqID
// is the originating request's correlation ID, forwarded on every
// replication RPC. Returns how many replicas durably acked this
// version.
func (s *Server) replicateBatch(e *GraphEntry, version uint64, b dynamic.Batch, reqID string) int {
	enc := b.AppendBinary(make([]byte, 0, 64))
	payload, err := json.Marshal(replicateRequest{
		Graph:    e.Name,
		Version:  version,
		PrevHash: e.lastBatchHash, // hash of version-1's batch (caller holds e.mu)
		Fold:     s.foldPoint(e.Name, version),
		Spec:     e.Spec,
		From:     s.cl.c.Self(),
		Batch:    base64.StdEncoding.EncodeToString(enc),
	})
	if err != nil {
		s.clusterReplErrors.Add(1)
		return 0
	}
	acked := 0
	for _, r := range s.fanout(e.Name, http.MethodPost, "/v1/internal/replicate", payload, reqID) {
		var ack replicateResponse
		switch {
		case r.err != nil:
			s.clusterReplErrors.Add(1)
		case r.status == http.StatusConflict:
			// The replica proved its chain diverged from ours while it
			// believes it is the primary (or holds a graph shape
			// replication cannot reconcile). Record it: /v1/cluster/status
			// shows it until one side moves ahead and the other resets.
			s.clusterReplErrors.Add(1)
			s.cl.setDiverged(e.Name, r.peer, fmt.Sprintf("replicating version %d: replica refused (conflict)", version))
		case r.status != http.StatusOK:
			s.clusterReplErrors.Add(1)
		case json.Unmarshal(r.body, &ack) != nil:
			s.clusterReplErrors.Add(1)
		case ack.Version > version:
			// The replica claims a version we have not produced yet. In a
			// healthy cluster the primary is the authority and replicas
			// never run ahead, so this is a fork in the making (a
			// split-brain peer applied its own batches) — counting it as
			// an ack would report "replicated" for a batch the peer never
			// stored and hide the fork until the versions collide.
			s.clusterReplErrors.Add(1)
			s.cl.setDiverged(e.Name, r.peer, fmt.Sprintf("replica at version %d is ahead of the primary's %d (suspected fork)", ack.Version, version))
		case ack.Version < version:
			s.clusterReplErrors.Add(1)
		default:
			s.clusterReplicated.Add(1)
			if ack.Applied {
				// A fresh apply of OUR record at the exact next version
				// proves the replica's chain is ours again (it resynced):
				// clear any sticky divergence record.
				s.cl.clearDiverged(e.Name, r.peer)
			}
			// Only a DURABLE ack advances the watermark and the response's
			// replicated count: a memory-only or persistence-degraded
			// replica applied the batch (enough to cover a primary kill
			// while that process lives) but would lose it to its own
			// restart, and the watermark's contract is recoverability.
			if ack.Persisted {
				s.cl.setWatermark(e.Name, r.peer, ack.Version)
				acked++
			}
		}
	}
	return acked
}

// peerReply is one peer's answer to a fanout request: the HTTP status
// and up to 1 MiB of the body, or the transport error that outlived
// the retry.
type peerReply struct {
	peer   string
	status int
	body   []byte
	err    error
}

// outcome renders the reply for a log line.
func (r peerReply) outcome() string {
	if r.err != nil {
		return r.err.Error()
	}
	return "status " + strconv.Itoa(r.status)
}

// fanout sends one internal request (JSON body, the replicated header,
// the request ID when non-empty) to every alive placement peer of
// graph name except this node, one goroutine per peer, and returns once
// every reply is in. Each request gets internalRetry against transport
// errors and 5xx replies; the peers run concurrently, so the retry
// budgets of hung peers overlap instead of adding up. A transport
// failure feeds the liveness state; any HTTP answer counts as a
// success, and a 5xx that survives the retry stays a status, not an
// error: a peer that answered is not dead.
func (s *Server) fanout(name, method, path string, body []byte, reqID string) []peerReply {
	c := s.cl.c
	var replies []peerReply
	for _, peer := range c.Placement(name) {
		if peer != c.Self() && c.Alive(peer) {
			replies = append(replies, peerReply{peer: peer})
		}
	}
	var wg sync.WaitGroup
	for i := range replies {
		r := &replies[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.err = internalRetry.Do(context.Background(), func(ctx context.Context) error {
				r.status, r.body = 0, nil
				req, err := http.NewRequestWithContext(ctx, method, r.peer+path, bytes.NewReader(body))
				if err != nil {
					return retry.Permanent(err)
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set(replicatedHeader, c.Self())
				if reqID != "" {
					req.Header.Set(obs.RequestIDHeader, reqID)
				}
				start := time.Now()
				resp, err := s.cl.replClient.Do(req)
				s.met.replRTT.With(r.peer).Observe(time.Since(start))
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				r.status = resp.StatusCode
				if r.body, err = io.ReadAll(io.LimitReader(resp.Body, 1<<20)); err != nil {
					return err
				}
				if r.status >= 500 {
					return fmt.Errorf("%s %s%s: status %d", method, r.peer, path, r.status)
				}
				return nil
			})
			if r.err != nil && r.status >= 500 {
				r.err = nil
			}
			if r.err != nil {
				c.ReportFailure(r.peer, r.err)
			} else {
				c.ReportSuccess(r.peer)
			}
		}()
	}
	wg.Wait()
	return replies
}

func (cs *clusterState) setWatermark(graph, peer string, version uint64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	m := cs.watermarks[graph]
	if m == nil {
		m = make(map[string]uint64)
		cs.watermarks[graph] = m
	}
	// First sight of a peer records it even at version 0 (a replica
	// that accepted the registration shows up in status before any
	// mutation); afterwards the watermark only moves forward.
	if v, seen := m[peer]; !seen || version > v {
		m[peer] = version
	}
	// A divergence record is NOT cleared here: an exact-version ack can
	// be an idempotent "already have it" from a forked peer whose chain
	// still differs below the head. Clearing happens on a FRESH applied
	// ack (ack.Applied in replicateBatch) — after the replica adopted
	// our snapshot and demonstrably extends our chain.
}

func (cs *clusterState) clearDiverged(graph, peer string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if m := cs.diverged[graph]; m != nil {
		delete(m, peer)
	}
}

func (cs *clusterState) setDiverged(graph, peer, reason string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	m := cs.diverged[graph]
	if m == nil {
		m = make(map[string]string)
		cs.diverged[graph] = m
	}
	m[peer] = reason
}

// Sentinels of the replicated-apply path.
var (
	errReplGap      = errors.New("replication gap")
	errReplDiverged = errors.New("replication chain diverged")
)

// ApplyReplicated applies a batch that originated on another node:
// idempotent for versions already held, strict +1 continuity otherwise,
// with the sender's prev-batch hash checked against ours before the
// apply (a mismatch means the two nodes applied different batches at
// the same version — a forked chain that must surface, not merge).
// persist is the local WAL hook, same contract as Mutate's. Returns
// the repair result of a fresh apply (nil for an idempotent
// re-delivery), whether the batch is durably logged (the persist
// hook's verdict — false when the hook is absent or degraded; a
// re-delivery reports the degraded flag's current state, mirroring
// Mutate's no-op rule), and the entry's version afterwards.
func (e *GraphEntry) ApplyReplicated(version, prevHash uint64, b dynamic.Batch, persist func(uint64, dynamic.Batch) bool) (res *dynamic.Result, persisted bool, cur uint64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dyn == nil {
		e.dyn = dynamic.NewColored(e.G, mutateOptions)
	}
	cur = e.dyn.Version()
	if version <= cur {
		// Already have it (re-delivery): ack idempotently, reporting the
		// durability the stored copy actually has.
		return nil, persist != nil && !e.persistBroken.Load(), cur, nil
	}
	if version != cur+1 {
		return nil, false, cur, fmt.Errorf("%w: record at version %d, local head %d", errReplGap, version, cur)
	}
	if prevHash != 0 && e.lastBatchHash != 0 && prevHash != e.lastBatchHash {
		return nil, false, cur, fmt.Errorf("%w: sender's batch %d differs from ours", errReplDiverged, cur)
	}
	res, err = e.dyn.Apply(b)
	if err != nil {
		return nil, false, cur, fmt.Errorf("%w: applying replicated batch for version %d: %v", errReplDiverged, version, err)
	}
	if res.Version != version {
		// The same batch on the same state must reach the same version
		// (determinism); anything else means the states differ.
		return nil, false, res.Version, fmt.Errorf("%w: replicated batch reached version %d, sender says %d",
			errReplDiverged, res.Version, version)
	}
	if persist != nil {
		persisted = persist(version, b)
	}
	e.lastBatchHash = batchHash(version, &b)
	return res, persisted, version, nil
}

// handleReplicate serves POST /v1/internal/replicate: the replica half
// of the replication stream. A record the replica cannot apply — a
// gap, a fork below the sender, a graph it never saw — heals through
// syncFrom before the record is applied.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, fmt.Errorf("%w: %s on /v1/internal/replicate (want POST)", ErrMethodNotAllowed, r.Method))
		return
	}
	if s.cl == nil {
		writeError(w, fmt.Errorf("%w: clustering is not enabled on this node", ErrBadRequest))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxReplicateBodyBytes+1))
	if err != nil || len(body) > maxReplicateBodyBytes {
		writeError(w, fmt.Errorf("%w: reading body", ErrBadRequest))
		return
	}
	var req replicateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, fmt.Errorf("%w: parsing JSON: %v", ErrBadRequest, err))
		return
	}
	batch, err := decodeWireBatch(req.Batch)
	if err != nil {
		writeError(w, fmt.Errorf("%w: decoding batch: %v", ErrBadRequest, err))
		return
	}
	if !s.cl.c.OwnsLocally(req.Graph) {
		writeError(w, fmt.Errorf("%w: node %s is not in the placement set of %q", ErrConflict, s.cl.c.Self(), req.Graph))
		return
	}
	entry, err := s.reg.Get(req.Graph)
	var res *dynamic.Result
	var persisted bool
	var cur uint64
	if err == nil {
		res, persisted, cur, err = entry.ApplyReplicated(req.Version, req.PrevHash, batch, s.persistBatch(entry))
	}
	switch {
	case err == nil:
	case req.From == "" || req.Fold >= req.Version:
		// No sender to sync from, or one that keeps no WAL for the graph
		// (its fold point is the record's version): it could feed us only
		// a snapshot captured under the entry lock it holds until we
		// answer. The gap stays visible in the sender's watermark.
	case errors.Is(err, errReplDiverged) && s.cl.c.IsActivePrimary(req.Graph):
		// Our chain forked from the sender's while WE believe we are the
		// graph's active primary: adopting the sender's history would
		// silently discard writes we acked under that belief. Refuse; the
		// conflict stays visible on both sides until the views reconcile
		// (the lease protocol prevents this from arising with
		// majority-alive clusters).
	default:
		// A gap, a fork below the sender, or a registration we missed:
		// sync from the sender — the record is the evidence that it holds
		// its version — then apply the record itself.
		if entry, err = s.syncFrom(req.Graph, req.From, peerState{Version: req.Version, Fold: req.Fold, Spec: req.Spec}, err); err == nil {
			res, persisted, cur, err = entry.ApplyReplicated(req.Version, req.PrevHash, batch, s.persistBatch(entry))
		}
	}
	switch {
	case errors.Is(err, errReplDiverged):
		writeError(w, fmt.Errorf("%w: %v", ErrDiverged, err))
		return
	case err != nil:
		unavailable(w, fmt.Errorf("replica cannot apply version %d of %q from %s: %v", req.Version, req.Graph, req.From, err))
		return
	}
	if res != nil {
		s.received(req.Graph, res.NumColors, res.Version)
	}
	writeJSONCompact(w, http.StatusOK, replicateResponse{Graph: req.Graph, Version: cur, Persisted: persisted, Applied: res != nil})
}

// isUploadSpec reports whether spec names an uploaded payload (whose
// bytes are not reproducible from the spec string).
func isUploadSpec(spec string) bool {
	return len(spec) >= 7 && spec[:7] == "upload:"
}

// tailResponse is the GET /v1/internal/tail document: the durable
// records past the requested version, in order.
type tailResponse struct {
	Graph   string       `json:"graph"`
	After   uint64       `json:"after"`
	Records []tailRecord `json:"records"`
}

type tailRecord struct {
	Version uint64 `json:"version"`
	Batch   string `json:"batch"` // dynamic.Batch codec, base64
}

// handleTail serves GET /v1/internal/tail?graph=G&after=V: the WAL
// records with version > V, the catch-up feed for promoted or
// rejoining peers. Requires a data directory — the tail is read
// straight from the WAL (store.TailRecords), which is also what makes
// it exactly the record stream the requester would have gotten live.
func (s *Server) handleTail(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, fmt.Errorf("%w: %s on /v1/internal/tail (want GET)", ErrMethodNotAllowed, r.Method))
		return
	}
	if s.st == nil {
		writeError(w, fmt.Errorf("%w: no data directory attached (cluster catch-up requires -data-dir)", ErrBadRequest))
		return
	}
	q := r.URL.Query()
	name := q.Get("graph")
	after, err := strconv.ParseUint(q.Get("after"), 10, 64)
	if name == "" || err != nil {
		writeError(w, fmt.Errorf("%w: want ?graph=NAME&after=VERSION", ErrBadRequest))
		return
	}
	records, err := s.st.TailRecords(name, after)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrConflict, err))
		return
	}
	resp := tailResponse{Graph: name, After: after, Records: make([]tailRecord, len(records))}
	for i, rec := range records {
		resp.Records[i] = tailRecord{
			Version: rec.Version,
			Batch:   base64.StdEncoding.EncodeToString(rec.Batch.AppendBinary(nil)),
		}
	}
	writeJSONCompact(w, http.StatusOK, resp)
}

// fanoutRegistration replicates a fresh registration to the graph's
// alive placement peers by re-POSTing the original upload body with
// the internal replication header. Registration is idempotent on the
// receiving side, so fanout's retry is safe. Best-effort: a peer that
// still fails bootstraps through syncFrom at the first replication
// record it receives (from the spec, or from a snapshot for uploads);
// failures are gauged, never fail the client's registration.
func (s *Server) fanoutRegistration(name string, body []byte, reqID string) {
	for _, r := range s.fanout(name, http.MethodPost, "/v1/graphs", body, reqID) {
		if r.err != nil || r.status != http.StatusOK {
			s.clusterReplErrors.Add(1)
			fmt.Fprintf(os.Stderr, "service: replicating registration of %q to %s: %s\n", name, r.peer, r.outcome())
			continue
		}
		s.cl.setWatermark(name, r.peer, 0)
	}
}

// ClusterMetrics is the /metrics view of the routing/replication layer.
type ClusterMetrics struct {
	Self              string `json:"self"`
	Nodes             int    `json:"nodes"`
	Replicas          int    `json:"replicas"`
	Epoch             uint64 `json:"epoch"`
	Proxied           int64  `json:"proxied"`
	ReplicatedBatches int64  `json:"replicatedBatches"`
	ReplicationErrors int64  `json:"replicationErrors"`
	HopRejections     int64  `json:"hopRejections"`
	CatchupBatches    int64  `json:"catchupBatches"`
	LeaseRenewals     int64  `json:"leaseRenewals"`
	LeaseFenced       int64  `json:"leaseFenced"`
	Resyncs           int64  `json:"resyncs"`
	// KeyHomeServes counts /v1/color responses this node served as the
	// request key's home; KeyLocalHits counts off-home local-cache
	// serves (key resident here despite living on another home).
	KeyHomeServes int64 `json:"keyHomeServes"`
	KeyLocalHits  int64 `json:"keyLocalHits"`
}

// clusterStatusGraph is one graph's placement view in /v1/cluster/status.
type clusterStatusGraph struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	// Primary is the rendezvous-first member; ActivePrimary is the
	// member currently accepting writes ("" when the whole placement
	// set is down). They differ exactly while failover is in effect.
	Primary       string   `json:"primary"`
	ActivePrimary string   `json:"activePrimary,omitempty"`
	Placement     []string `json:"placement"`
	// Role is this node's relationship to the graph: "primary",
	// "replica" or "none".
	Role string `json:"role"`
	// Watermarks maps each replica to the highest version it acked on
	// the replication stream (present on the node that produced them).
	Watermarks map[string]uint64 `json:"watermarks,omitempty"`
	// Diverged maps replicas whose version chain forked from ours to
	// the detection reason.
	Diverged map[string]string `json:"diverged,omitempty"`
	// LeaseMs is the holder-side write-lease term remaining on this
	// node in milliseconds (present only when leases are enabled and
	// this node holds or held one for the graph).
	LeaseMs int64 `json:"leaseMs,omitempty"`
}

// handleClusterStatus serves GET /v1/cluster/status: membership,
// liveness, per-graph placement, roles and replication watermarks —
// the operator's (and the cluster smoke test's) one-stop view.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, fmt.Errorf("%w: %s on /v1/cluster/status (want GET)", ErrMethodNotAllowed, r.Method))
		return
	}
	if s.cl == nil {
		writeJSON(w, http.StatusOK, map[string]interface{}{"enabled": false})
		return
	}
	c := s.cl.c
	now := time.Now()
	graphs := []clusterStatusGraph{}
	for _, e := range s.reg.List() {
		pl := c.Placement(e.Name)
		g := clusterStatusGraph{
			Name:      e.Name,
			Version:   e.Version(),
			Primary:   pl[0],
			Placement: pl,
			Role:      "none",
		}
		if ap, ok := c.ActivePrimary(e.Name); ok {
			g.ActivePrimary = ap
		}
		switch {
		case g.ActivePrimary == c.Self():
			g.Role = "primary"
		case c.OwnsLocally(e.Name):
			g.Role = "replica"
		}
		s.cl.mu.Lock()
		if wm := s.cl.watermarks[e.Name]; len(wm) > 0 {
			g.Watermarks = make(map[string]uint64, len(wm))
			for p, v := range wm {
				g.Watermarks[p] = v
			}
		}
		if dv := s.cl.diverged[e.Name]; len(dv) > 0 {
			g.Diverged = make(map[string]string, len(dv))
			for p, reason := range dv {
				g.Diverged[p] = reason
			}
		}
		s.cl.mu.Unlock()
		if c.LeaseDuration() > 0 {
			g.LeaseMs = s.leaseExpiry(e.Name, now)
		}
		graphs = append(graphs, g)
	}
	status := map[string]interface{}{
		"enabled":  true,
		"self":     c.Self(),
		"epoch":    c.Epoch(),
		"replicas": c.Replicas(),
		"nodes":    c.Status(),
		"graphs":   graphs,
	}
	if dur := c.LeaseDuration(); dur > 0 {
		status["lease"] = map[string]interface{}{
			"durationMs": dur.Milliseconds(),
			"majority":   c.Majority(),
			"grants":     c.LeaseGrants(now),
		}
	}
	writeJSON(w, http.StatusOK, status)
}
