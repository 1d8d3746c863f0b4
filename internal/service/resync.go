package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/store"
)

// Peer state transfer. Every way a graph's state moves between cluster
// peers — a replica healing a gap or a fork on the replication stream,
// a promoted or rejoining primary catching up before it writes, a node
// bootstrapping a graph whose registration it missed — is one call,
// syncFrom, acting on one piece of evidence about the peer: its
// peerState. The replication record carries it, and GET
// /v1/internal/version serves it.
//
// The evidence names the peer's fold point: the version above which
// its WAL holds every record. syncFrom replays the peer's WAL tail when
// that tail extends the local chain — the local copy exists, sits at or
// above the fold point, and its head batch hashes like the peer's
// record at the same version. Otherwise it resets the local copy to the
// peer's base and replays the tail from there. The base is the spec at
// version 0 when the graph is spec-built and the peer has never folded
// its WAL (fold point 0): that needs no lock on the peer, which may be
// holding its entry lock while it replicates to us. Any other base is
// the peer's checksummed snapshot (resyncFrom), served from its store
// file when it has one. A reset folds the new base into the local store
// too, so a restart recovers the healed chain, and bumps the resyncs
// counter.
//
// A reset discards local state, so it needs evidence that the peer is
// ahead: an existing copy is reset only when the peer's version is
// above ours. A true same-version split-brain stays a visible
// "diverged" conflict on the node that believes it is the primary; the
// losing side heals the moment the winner moves ahead.

// peerState is the evidence a sync acts on: a peer's version of a
// graph, its fold point — the version above which the peer's WAL holds
// every record: its durable snapshot version, or its own version when
// it keeps no WAL for the graph — and the graph's registration spec.
type peerState struct {
	Version uint64 `json:"version"`
	Fold    uint64 `json:"fold"`
	Spec    string `json:"spec"`
}

// errNeedSnapshot classifies a tail the peer's WAL cannot serve (its
// records were folded into a snapshot): syncFrom resets instead.
var errNeedSnapshot = errors.New("tail unavailable, snapshot transfer needed")

// maxSnapshotBytes bounds one snapshot transfer (1 GiB — far above any
// graph this service handles, but a bound nonetheless).
const maxSnapshotBytes = 1 << 30

// Snapshot transfer headers: the graph's registration spec (so a
// receiver that never saw the registration can create the entry) and
// the sender's newest applied batch fingerprint (0 when unknown, e.g.
// when the durable snapshot file is served rather than live state).
const (
	snapshotSpecHeader = "X-Colord-Spec"
	snapshotHashHeader = "X-Colord-Batch-Hash"
)

// foldPoint is this node's fold point for name at version: the version
// its durable snapshot captures, or version itself when the graph has
// no WAL here. It takes no entry lock, so the replication sender can
// stamp it on a record while it holds one.
func (s *Server) foldPoint(name string, version uint64) uint64 {
	if s.st != nil {
		if fold, _, err := s.st.FoldState(name); err == nil {
			return fold
		}
	}
	return version
}

// handleVersion serves GET /v1/internal/version?graph=G: this node's
// peerState of the graph, never routed — the cheap probe a peer syncs
// from.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, fmt.Errorf("%w: %s on /v1/internal/version (want GET)", ErrMethodNotAllowed, r.Method))
		return
	}
	name := r.URL.Query().Get("graph")
	e, err := s.reg.Get(name)
	if err != nil {
		writeError(w, err)
		return
	}
	version := e.Version()
	writeJSONCompact(w, http.StatusOK, map[string]interface{}{"graph": name, "version": version, "fold": s.foldPoint(name, version), "spec": e.Spec})
}

// peerGet GETs an internal endpoint of peer for graph name, with the
// bounded internal retry; query carries any further parameters.
func (s *Server) peerGet(peer, endpoint, name, query string) (*http.Response, error) {
	var resp *http.Response
	err := internalRetry.Do(context.Background(), func(context.Context) error {
		var err error
		resp, err = s.cl.replClient.Get(peer + "/v1/internal/" + endpoint + "?graph=" + url.QueryEscape(name) + query)
		return err
	})
	return resp, err
}

// probePeer asks peer for its peerState of name. ok=false when the peer
// does not hold the graph.
func (s *Server) probePeer(peer, name string) (ev peerState, ok bool, err error) {
	resp, err := s.peerGet(peer, "version", name, "")
	if err != nil {
		return ev, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return ev, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return ev, false, fmt.Errorf("version probe status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&ev); err != nil {
		return ev, false, err
	}
	return ev, true, nil
}

// ensureSynced makes this node's copy of name current before it acts
// as the graph's owner: the write primary, or a read owner that misses
// the graph. Cheap in steady state (a registry lookup and one epoch
// compare); after a membership transition, or when the graph is
// missing here, it probes every alive placement peer and syncs from
// each one that is ahead of us — or, when we miss the graph, that
// holds it. It returns ErrNotFound when no peer holds the graph either
// (a genuine 404), and an ErrUnavailable error when a peer that is
// ahead cannot feed us: minting a version then would fork the chain, so
// the caller answers 503 + Retry-After.
func (s *Server) ensureSynced(name string) (*GraphEntry, error) {
	e, err := s.reg.Get(name)
	if s.cl == nil {
		return e, err
	}
	c := s.cl.c
	epoch := c.Epoch()
	if e != nil {
		e.mu.Lock()
		synced := e.syncedEpoch == epoch
		e.mu.Unlock()
		if synced {
			return e, nil
		}
	}
	for _, peer := range c.Placement(name) {
		if peer == c.Self() || !c.Alive(peer) {
			continue
		}
		ev, has, perr := s.probePeer(peer, name)
		if perr != nil {
			// An unreachable peer cannot hold the graph hostage: the
			// fail-stop model says it is down (the report accelerates the
			// liveness verdict) and we are the best remaining authority.
			c.ReportFailure(peer, perr)
			continue
		}
		c.ReportSuccess(peer)
		if !has || (e != nil && ev.Version <= e.Version()) {
			continue
		}
		if e, err = s.syncFrom(name, peer, ev, err); err != nil {
			return nil, fmt.Errorf("%w: syncing %q from %s: %v", ErrUnavailable, name, peer, err)
		}
		if e.Version() < ev.Version {
			return nil, fmt.Errorf("%w: %s holds %q at version %d but fed us only to %d", ErrUnavailable, peer, name, ev.Version, e.Version())
		}
	}
	if e == nil {
		return nil, err // no peer holds it either
	}
	e.mu.Lock()
	e.syncedEpoch = epoch
	e.mu.Unlock()
	return e, nil
}

// syncFrom brings the local copy of name (missing or not) onto peer's
// chain, as the evidence ev allows; cause is why the sync runs (the
// replicated apply's gap or fork, a missing graph, or nil). It replays
// the peer's tail when that extends the local chain, and otherwise
// resets to the peer's base and replays the tail above it.
func (s *Server) syncFrom(name, peer string, ev peerState, cause error) (*GraphEntry, error) {
	e, _ := s.reg.Get(name)
	if e != nil && !errors.Is(cause, errReplDiverged) && e.Version() >= ev.Fold {
		err := s.replayTail(e, peer, ev)
		if err == nil || (!errors.Is(err, errReplDiverged) && !errors.Is(err, errNeedSnapshot)) {
			return e, err
		}
		cause = err
	}
	if e != nil && ev.Version <= e.Version() {
		if cause == nil {
			return e, nil // nothing failed and the peer is not ahead
		}
		return e, fmt.Errorf("%w (peer %s at version %d, local %d: not provably ahead, refusing reset)",
			cause, peer, ev.Version, e.Version())
	}
	var err error
	if e, err = s.reset(e, name, peer, ev); err != nil {
		return nil, fmt.Errorf("sync of %q failed (%v) and reset from %s failed too: %v", name, cause, peer, err)
	}
	if err := s.replayTail(e, peer, ev); err != nil {
		return e, err
	}
	s.cl.clearDiverged(name, peer)
	return e, nil
}

// reset replaces the local copy of name (e, nil when missing) with
// peer's base: the spec rebuilt at version 0 when the graph is
// spec-built and the peer's fold point is 0, its snapshot otherwise.
// A missing spec graph is simply registered: there is nothing to
// discard, so it is not counted as a resync.
func (s *Server) reset(e *GraphEntry, name, peer string, ev peerState) (*GraphEntry, error) {
	if ev.Fold != 0 || ev.Spec == "" || isUploadSpec(ev.Spec) {
		return s.resyncFrom(name, peer)
	}
	if e == nil {
		fresh, err := s.RegisterSpec(name, ev.Spec)
		if err == nil {
			fmt.Fprintf(os.Stderr, "service: bootstrapped graph %q from spec %s (peer %s)\n", name, ev.Spec, peer)
		}
		return fresh, err
	}
	g, err := BuildSpec(ev.Spec)
	if err != nil {
		return nil, err
	}
	s.install(e, peer, &store.Snapshot{Graph: g}, nil, 0)
	return e, nil
}

// replayTail pulls peer's WAL records above the local version and
// applies them through the replicated-apply path (so they land in the
// local WAL too), until the peer has nothing newer or we reach its
// version.
//
// Fork guard: while our head is still above the peer's fold point, the
// first fetch asks for one record of overlap, our head version, whose
// hash must equal our own last batch's. If it differs, the two nodes
// applied different batches at the same version — a forked chain the
// tail must not be stacked on (errReplDiverged; syncFrom resets
// instead). The check is skipped when we know no hash (a fresh base, or
// a WAL compacted away here) or the record is folded on the peer.
func (s *Server) replayTail(e *GraphEntry, peer string, ev peerState) error {
	for first := true; ; first = false {
		e.mu.Lock()
		local, hash := e.version(), e.lastBatchHash
		e.mu.Unlock()
		if local >= ev.Version {
			return nil
		}
		overlap := first && hash != 0 && local > ev.Fold
		after := local
		if overlap {
			after = local - 1
		}
		records, err := s.fetchTail(peer, e.Name, after)
		if err != nil {
			return err
		}
		if overlap && len(records) > 0 && records[0].Version == local {
			b, err := decodeWireBatch(records[0].Batch)
			if err != nil {
				return fmt.Errorf("tail record %d: %v", local, err)
			}
			if batchHash(local, &b) != hash {
				reason := fmt.Sprintf("catch-up refused: %s's batch at version %d differs from ours (forked chain)", peer, local)
				s.cl.setDiverged(e.Name, peer, reason)
				return fmt.Errorf("%w: %s", errReplDiverged, reason)
			}
			records = records[1:]
		}
		if len(records) == 0 {
			return nil // caught up with everything the peer can serve
		}
		for _, rec := range records {
			b, err := decodeWireBatch(rec.Batch)
			if err != nil {
				return fmt.Errorf("tail record %d: %v", rec.Version, err)
			}
			res, _, _, err := e.ApplyReplicated(rec.Version, 0, b, s.persistBatch(e))
			if err != nil {
				return fmt.Errorf("applying tail record %d: %v", rec.Version, err)
			}
			if res != nil {
				s.clusterCatchups.Add(1)
				s.received(e.Name, res.NumColors, res.Version)
			}
		}
	}
}

// fetchTail GETs peer's WAL records of name with version > after.
func (s *Server) fetchTail(peer, name string, after uint64) ([]tailRecord, error) {
	resp, err := s.peerGet(peer, "tail", name, "&after="+strconv.FormatUint(after, 10))
	if err != nil {
		s.cl.c.ReportFailure(peer, err)
		return nil, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxUploadBytes))
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		return nil, fmt.Errorf("%w: tail fetch from %s: %s", errNeedSnapshot, peer, bytes.TrimSpace(body))
	default:
		return nil, fmt.Errorf("tail fetch from %s: status %d: %s", peer, resp.StatusCode, bytes.TrimSpace(body))
	}
	var tail tailResponse
	if err := json.Unmarshal(body, &tail); err != nil {
		return nil, fmt.Errorf("tail fetch from %s: %v", peer, err)
	}
	return tail.Records, nil
}

// received is the hook every state change that arrives from a peer runs
// — a replicated batch, a replayed tail record, a reset: purge the
// graph's cached colorings and fold the maintained count into the
// quality tracker, as the mutate path does for a local batch.
func (s *Server) received(name string, numColors int, version uint64) {
	s.cacheInvalidations.Add(int64(s.mgr.Cache().DeleteGraph(name)))
	s.qtr.Observe(name, numColors, version)
}

// handleSnapshot serves GET /v1/internal/snapshot?graph=G: the full
// graph + coloring snapshot a peer resets onto. Preferred source is the
// store's durable snapshot file — readable while a replication call
// holds the graph's mutation lock. Memory-only nodes fall back to
// capturing live state under a bounded lock attempt (a spec graph that
// never compacted has no file either, but its peers reset to the spec
// rather than ask).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, fmt.Errorf("%w: %s on /v1/internal/snapshot (want GET)", ErrMethodNotAllowed, r.Method))
		return
	}
	name := r.URL.Query().Get("graph")
	e, err := s.reg.Get(name)
	if err != nil {
		writeError(w, err)
		return
	}
	if s.st != nil && s.st.Has(name) {
		if data, _, err := s.st.SnapshotBytes(name); err == nil {
			w.Header().Set(snapshotSpecHeader, e.Spec)
			w.Header().Set(snapshotHashHeader, "0")
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(data)
			return
		}
	}
	// Live capture. The mutation lock may be held by a replication call
	// that is itself waiting on the requester — bound the attempt and
	// 503 rather than deadlocking the pair until a timeout fires.
	var g *graph.Graph
	var colors []uint32
	var version, lastHash uint64
	locked := false
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if e.mu.TryLock() {
			locked = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !locked {
		unavailable(w, fmt.Errorf("graph %q is busy (mid-replication); retry the snapshot fetch", name))
		return
	}
	if e.dyn == nil {
		g = e.G
	} else {
		g, err = e.dyn.Snapshot()
		colors = e.dyn.Colors()
		version = e.dyn.Version()
	}
	lastHash = e.lastBatchHash
	spec := e.Spec
	e.mu.Unlock()
	if err != nil {
		unavailable(w, err)
		return
	}
	w.Header().Set(snapshotSpecHeader, spec)
	w.Header().Set(snapshotHashHeader, strconv.FormatUint(lastHash, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	_ = store.WriteSnapshot(w, g, colors, version)
}

// resyncFrom is the snapshot half of a reset: ship peer's snapshot of
// name, verify it, create the registry entry when this node never saw
// the registration — the only way an upload graph, whose bytes exist
// only in peers' snapshots, reaches a node that missed it — and
// install it.
func (s *Server) resyncFrom(name, peer string) (*GraphEntry, error) {
	resp, err := s.peerGet(peer, "snapshot", name, "")
	if err != nil {
		s.cl.c.ReportFailure(peer, err)
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("snapshot fetch of %q from %s: status %d: %s", name, peer, resp.StatusCode, bytes.TrimSpace(msg))
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxSnapshotBytes {
		return nil, fmt.Errorf("snapshot of %q from %s exceeds %d bytes", name, peer, maxSnapshotBytes)
	}
	s.cl.c.ReportSuccess(peer)
	snap, err := store.DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("snapshot of %q from %s: %v", name, peer, err)
	}
	spec := resp.Header.Get(snapshotSpecHeader)
	lastHash, _ := strconv.ParseUint(resp.Header.Get(snapshotHashHeader), 10, 64)

	// Rebuild the dynamic state the snapshot captures before touching
	// the entry: RestoreColored re-verifies the embedded coloring is
	// proper, so corrupt or malicious bytes can never be adopted.
	var dyn *dynamic.Colored
	if snap.Colors != nil {
		if dyn, err = dynamic.RestoreColored(snap.Graph, snap.Colors, snap.GraphVersion, mutateOptions); err != nil {
			return nil, fmt.Errorf("snapshot of %q from %s: %v", name, peer, err)
		}
	} else if snap.GraphVersion != 0 {
		return nil, fmt.Errorf("snapshot of %q from %s is at version %d but carries no coloring", name, peer, snap.GraphVersion)
	}

	e, err := s.reg.Get(name)
	if err != nil {
		if e, err = s.reg.Add(name, spec, snap.Graph); err != nil {
			return nil, err
		}
		if perr := s.persistRegistration(e, isUploadSpec(spec)); perr != nil {
			fmt.Fprintf(os.Stderr, "service: resync of %q: persisting registration: %v (continuing memory-only)\n", name, perr)
		}
	}
	s.install(e, peer, snap, dyn, lastHash)
	return e, nil
}

// install swaps a reset's base (the graph at snap.GraphVersion, with
// its maintained coloring dyn, nil at a colorless version 0) into e: in
// memory — base graph, dynamic overlay, maintained coloring, fork
// detector — and in the local store, where a compaction commit folds it
// into a fresh snapshot and resets the WAL, discarding any forked or
// gapped records.
func (s *Server) install(e *GraphEntry, peer string, snap *store.Snapshot, dyn *dynamic.Colored, lastHash uint64) {
	// Exclude the background compactor before taking the mutation lock:
	// a compaction captured from the pre-reset state must never commit
	// over the installed base (a same-version fork would pass its
	// version re-check). compactGraph never blocks on this flag — a
	// concurrent trigger just leaves a rerun request — so the spin only
	// waits out a running compaction's bounded remainder, and a request
	// left while the reset held the flag is run once it is released.
	for !e.compacting.CompareAndSwap(false, true) {
		time.Sleep(5 * time.Millisecond)
	}
	e.mu.Lock()
	e.G = snap.Graph
	e.dyn = dyn
	e.lastBatchHash = lastHash
	if dyn == nil {
		e.stats, e.statsVer = graph.ComputeStats(snap.Graph), 0
	}
	if s.st != nil && s.st.Has(e.Name) {
		// Fold the installed state into the local store under the same
		// lock: the WAL reset discards forked/gapped records, and no
		// batch can interleave between the in-memory swap and the
		// durable commit. Lock order (entry -> store) matches the
		// persistBatch path.
		pending, err := s.st.BeginCompact(e.Name, snap.Graph, snap.Colors, snap.GraphVersion)
		if err == nil {
			err = pending.Commit()
		}
		if err != nil {
			// Degraded, visibly: serving resumes from the installed
			// in-memory state, persistErrors counts it, and appends stay
			// off until a later compaction heals.
			s.persistErrors.Add(1)
			e.persistBroken.Store(true)
			fmt.Fprintf(os.Stderr, "service: reset of %q: folding the installed base: %v (persistence degraded)\n", e.Name, err)
		} else {
			e.persistBroken.Store(false)
		}
	}
	e.mu.Unlock()
	e.compacting.Store(false)
	if e.compactRerun.Load() {
		s.scheduleCompact(e.Name)
	}
	numColors := 0
	if dyn != nil {
		numColors = dyn.NumColors()
	}
	s.received(e.Name, numColors, snap.GraphVersion)
	s.clusterResyncs.Add(1)
	fmt.Fprintf(os.Stderr, "service: reset graph %q onto %s's base at version %d\n", e.Name, peer, snap.GraphVersion)
}
