package service

import (
	"bytes"
	"context"
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

// Automated divergence resync: when a replica's WAL tail cannot heal
// it — its version chain forked from the active primary's, or the
// records it is missing were compacted away on every peer — the node
// ships a full checksummed snapshot (the store's binary codec, colors
// embedded) from the peer, adopts it wholesale, replays whatever WAL
// tail extends past it, and rejoins the replication stream. Zero
// manual steps: the paths that previously stranded a graph behind
// "snapshot shipping needed" errors now end in a converged replica and
// a bumped clusterResyncs counter.
//
// Adoption discards local state, so it is guarded by EVIDENCE of being
// behind: a node only adopts from a peer that provably holds a newer
// version (adoptIfBehind). A true same-version split-brain — two nodes
// each holding a different batch at the same head — stays a visible
// "diverged" conflict on the node that believes it is the primary;
// the losing side heals the moment the winner moves ahead.

// errNeedSnapshot classifies a catch-up that the peer's WAL cannot
// serve (records compacted into a snapshot): the caller escalates to
// snapshot shipping instead of failing the sync.
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

// handleSnapshot serves GET /v1/internal/snapshot?graph=G: the full
// graph + coloring snapshot a diverged or gapped peer resyncs from.
// Preferred source is the store's durable snapshot file — readable
// while a replication call holds the graph's mutation lock, which is
// exactly when a mid-replication resync arrives. Memory-only nodes
// (and spec graphs that never compacted) fall back to capturing live
// state under a bounded lock attempt.
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

// resyncFrom ships a full snapshot of name from peer and adopts it:
// in-memory state (base graph, dynamic overlay, maintained coloring,
// fork detector) AND the local store (a compaction commit folds the
// adopted state into a fresh snapshot and resets the WAL, discarding
// any forked or gapped local records). Creates the registry entry when
// this node never saw the registration — the path that finally covers
// upload-format graphs, whose bytes exist only in peers' snapshots.
func (s *Server) resyncFrom(name, peer string) (*GraphEntry, error) {
	var resp *http.Response
	err := internalRetry.Do(context.Background(), func(context.Context) error {
		var err error
		resp, err = s.cl.replClient.Get(peer + "/v1/internal/snapshot?graph=" + url.QueryEscape(name))
		return err
	})
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
		if s.st != nil {
			if perr := s.persistRegistration(e, isUploadSpec(spec)); perr != nil {
				fmt.Fprintf(os.Stderr, "service: resync of %q: persisting registration: %v (continuing memory-only)\n", name, perr)
			}
		}
	}

	// Exclude the background compactor before taking the mutation lock:
	// a compaction captured from the PRE-resync state must never commit
	// over the adopted snapshot (a same-version fork would pass its
	// version re-check). compactGraph never blocks on this flag — a
	// concurrent trigger just leaves a rerun request — so the spin only
	// waits out a running compaction's bounded remainder, and a request
	// left while the resync held the flag is run once it is released.
	for !e.compacting.CompareAndSwap(false, true) {
		time.Sleep(5 * time.Millisecond)
	}
	defer func() {
		e.compacting.Store(false)
		if e.compactRerun.Load() {
			s.scheduleCompact(name)
		}
	}()

	e.mu.Lock()
	defer e.mu.Unlock()
	e.G = snap.Graph
	e.dyn = dyn
	e.lastBatchHash = lastHash
	if dyn == nil {
		e.stats, e.statsVer = graph.ComputeStats(snap.Graph), 0
	}
	if s.st != nil && s.st.Has(name) {
		// Fold the adopted state into the local store under the same
		// lock: the WAL reset discards forked/gapped records, and no
		// batch can interleave between the in-memory swap and the
		// durable commit. Lock order (entry -> store) matches the
		// persistBatch path.
		pending, cerr := s.st.BeginCompact(name, snap.Graph, snap.Colors, snap.GraphVersion)
		if cerr == nil {
			cerr = pending.Commit()
		}
		if cerr != nil {
			// Degraded, visibly: serving resumes from the adopted
			// in-memory state, persistErrors counts it, and appends stay
			// off until a later compaction heals.
			s.persistErrors.Add(1)
			e.persistBroken.Store(true)
			fmt.Fprintf(os.Stderr, "service: resync of %q: folding adopted snapshot: %v (persistence degraded)\n", name, cerr)
		} else {
			e.persistBroken.Store(false)
		}
	}
	s.cacheInvalidations.Add(int64(s.mgr.Cache().DeleteGraph(name)))
	s.clusterResyncs.Add(1)
	fmt.Fprintf(os.Stderr, "service: resynced graph %q from %s at version %d (snapshot transfer)\n", name, peer, snap.GraphVersion)
	return e, nil
}

// adoptIfBehind escalates a failed sync to snapshot shipping iff peer
// provably holds a newer version than we do. Without that proof the
// original cause is returned (wrapped, so errors.Is classification
// survives): adopting a peer's state at the SAME version would
// silently pick a side of a split-brain fork — that stays a visible
// conflict until one side moves ahead.
func (s *Server) adoptIfBehind(e *GraphEntry, peer string, cause error) error {
	pv, _, has, err := s.peerVersion(peer, e.Name)
	if err != nil {
		return fmt.Errorf("%w (and version probe of %s failed: %v)", cause, peer, err)
	}
	if !has || pv <= e.Version() {
		return fmt.Errorf("%w (peer %s at version %d, local %d: not provably ahead, refusing snapshot adoption)",
			cause, peer, pv, e.Version())
	}
	if _, err := s.resyncFrom(e.Name, peer); err != nil {
		return fmt.Errorf("sync of %q failed (%v) and snapshot resync from %s failed too: %v", e.Name, cause, peer, err)
	}
	return nil
}

// adoptFromSender is adoptIfBehind with the ahead-evidence supplied by
// the replication stream itself: a sender streaming version v provably
// holds v, so no version probe is needed. That matters for more than
// economy — the sender is mid-replicate, holding its own entry lock
// while it waits for OUR ack, so probing it back would deadlock the
// pair until the replication timeout fires.
func (s *Server) adoptFromSender(e *GraphEntry, peer string, senderVer uint64, cause error) error {
	if senderVer <= e.Version() {
		return fmt.Errorf("%w (sender %s streams version %d, local %d: not provably ahead, refusing snapshot adoption)",
			cause, peer, senderVer, e.Version())
	}
	if _, err := s.resyncFrom(e.Name, peer); err != nil {
		return fmt.Errorf("sync of %q failed (%v) and snapshot resync from %s failed too: %v", e.Name, cause, peer, err)
	}
	return nil
}

// syncFrom is catchUpFrom plus the snapshot escalation: a tail the
// peer cannot serve (compacted away) or refuses to stack (forked
// chain) turns into a full snapshot adoption — when the peer is
// provably ahead — followed by another tail replay for anything newer
// than the shipped snapshot.
func (s *Server) syncFrom(e *GraphEntry, peer string) error {
	err := s.catchUpFrom(e, peer)
	if err == nil || (!errors.Is(err, errReplDiverged) && !errors.Is(err, errNeedSnapshot)) {
		return err
	}
	if aerr := s.adoptIfBehind(e, peer, err); aerr != nil {
		return aerr
	}
	return s.catchUpFrom(e, peer)
}

// syncFromSender is syncFrom for the replicate-receive path: same tail
// replay and snapshot escalation, but with the sender's streamed
// version as the ahead-evidence instead of a network probe (see
// adoptFromSender for why probing the sender would deadlock).
func (s *Server) syncFromSender(e *GraphEntry, peer string, senderVer uint64) error {
	err := s.catchUpFrom(e, peer)
	if err == nil || (!errors.Is(err, errReplDiverged) && !errors.Is(err, errNeedSnapshot)) {
		return err
	}
	if aerr := s.adoptFromSender(e, peer, senderVer, err); aerr != nil {
		return aerr
	}
	return s.catchUpFrom(e, peer)
}
