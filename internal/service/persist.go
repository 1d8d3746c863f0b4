package service

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/dynamic"
	"repro/internal/store"
	"repro/internal/verify"
)

// Persistence wiring: an optional store.Store behind the server makes
// every registered graph durable — generator specs as metadata (the
// spec string rebuilds the identical graph on boot), uploads as binary
// snapshots, and every applied mutation batch as a fsync'd WAL record
// appended under the entry's mutation lock before the response leaves.
// On boot, Recover restores the registry to the exact pre-crash state:
// same graphs, same graphVersion, and — because every algorithm is
// seed-deterministic — the same coloring for every (algo, seed, eps)
// a client can ask for, so the result cache re-warms with
// byte-identical entries on demand.

// AttachStore mounts st behind the server. Call before serving.
func (s *Server) AttachStore(st *store.Store) {
	s.st = st
	if st != nil && s.met != nil {
		st.SetObserver(store.Observer{
			WALAppendSeconds:  s.met.walAppend.ObserveSeconds,
			CompactionSeconds: s.met.compaction.ObserveSeconds,
		})
	}
}

// Store returns the attached store (nil when the server is memory-only).
func (s *Server) Store() *store.Store { return s.st }

// RecoveryStats summarizes one boot recovery.
type RecoveryStats struct {
	Graphs          int
	SnapshotLoads   int
	SpecRebuilds    int
	ReplayedBatches int
	TruncatedWALs   int
	SkippedRecords  int
	Seconds         float64
}

// Recover restores every graph persisted in the attached store:
// snapshot-backed bases are mmap'd, spec-only graphs rebuilt from
// their deterministic spec, and the WAL suffix is replayed through the
// dynamic overlay so the entry resumes at the exact pre-crash
// graphVersion with a verified-proper maintained coloring.
func (s *Server) Recover() (RecoveryStats, error) {
	var stats RecoveryStats
	if s.st == nil {
		return stats, fmt.Errorf("service: no store attached")
	}
	start := time.Now()
	recovered, err := s.st.Recover()
	if err != nil {
		return stats, err
	}
	for _, rg := range recovered {
		if err := s.restoreGraph(rg, &stats); err != nil {
			return stats, fmt.Errorf("service: recovering graph %q: %w", rg.Name, err)
		}
	}
	stats.Graphs = len(recovered)
	stats.Seconds = time.Since(start).Seconds()
	return stats, nil
}

// restoreGraph rebuilds one recovered graph and registers it.
func (s *Server) restoreGraph(rg store.RecoveredGraph, stats *RecoveryStats) error {
	base := rg.Base
	if base == nil {
		if rg.Spec == "" {
			return fmt.Errorf("no snapshot and no spec")
		}
		g, err := BuildSpec(rg.Spec)
		if err != nil {
			return err
		}
		base = g
		stats.SpecRebuilds++
	} else {
		stats.SnapshotLoads++
	}
	if rg.WALTruncated {
		stats.TruncatedWALs++
	}
	stats.SkippedRecords += rg.SkippedRecords

	entry, err := s.reg.Add(rg.Name, rg.Spec, base)
	if err != nil {
		return err
	}
	// Restore the dynamic state. Three shapes:
	//   - no coloring, no WAL records: never-mutated graph, dyn stays
	//     nil (version 0, the zero-cost static case);
	//   - compacted snapshot: adopt the embedded coloring verbatim at
	//     SnapshotVersion (verified proper by RestoreColored);
	//   - WAL records: replay each batch through the same incremental
	//     repair that produced it, asserting the version trail matches.
	var dyn *dynamic.Colored
	if rg.Colors != nil {
		dyn, err = dynamic.RestoreColored(base, rg.Colors, rg.SnapshotVersion, mutateOptions)
		if err != nil {
			return err
		}
	} else if len(rg.Records) > 0 {
		if rg.SnapshotVersion != 0 {
			return fmt.Errorf("snapshot at version %d carries no coloring but WAL has %d records",
				rg.SnapshotVersion, len(rg.Records))
		}
		dyn = dynamic.NewColored(base, mutateOptions)
	}
	if dyn != nil {
		var lastHash uint64
		for _, rec := range rg.Records {
			res, err := dyn.Apply(rec.Batch)
			if err != nil {
				return fmt.Errorf("replaying batch for version %d: %w", rec.Version, err)
			}
			if res.Version != rec.Version {
				return fmt.Errorf("replay version diverged: WAL says %d, overlay reached %d",
					rec.Version, res.Version)
			}
			lastHash = batchHash(rec.Version, &rec.Batch)
			stats.ReplayedBatches++
		}
		// End-to-end sanity: the restored maintained coloring must be
		// proper on the restored graph (Apply only re-verifies the dirty
		// region per batch).
		g, err := dyn.Snapshot()
		if err != nil {
			return err
		}
		if err := verify.CheckProper(g, dyn.Colors()); err != nil {
			return fmt.Errorf("restored coloring: %w", err)
		}
		entry.mu.Lock()
		entry.dyn = dyn
		// Re-arm the replication fork detector with the newest replayed
		// record's fingerprint (0 — unknown — when the WAL was empty,
		// e.g. right after a compaction folded it away).
		entry.lastBatchHash = lastHash
		entry.mu.Unlock()
		// Seed the quality tracker: a restored maintained coloring (which
		// embeds any pre-crash recolor improvements the compaction folded)
		// is the graph's current quality baseline. targetColors objectives
		// are in-memory only and do not survive the restart.
		s.qtr.Observe(rg.Name, dyn.NumColors(), dyn.Version())
		s.updateQualityGauges(rg.Name)
	}
	return nil
}

// RegisterSpec builds a graph from a deterministic generator spec,
// registers it and persists it (metadata only — the spec rebuilds the
// graph). The registration path colord's -preload uses, and the
// idempotent fast path when recovery already restored the name.
func (s *Server) RegisterSpec(name, spec string) (*GraphEntry, error) {
	return s.registerGraph(graphUploadRequest{Name: name, Spec: spec})
}

// persistRegistration makes a freshly registered graph durable:
// spec-built graphs store metadata, uploads store a binary snapshot
// (their bytes exist nowhere else). Failure keeps the graph serving
// from memory — callers record it in the persistErrors gauge.
func (s *Server) persistRegistration(e *GraphEntry, isUpload bool) error {
	if s.st == nil {
		return nil
	}
	var err error
	if isUpload {
		err = s.st.Register(e.Name, e.Spec, e.G, true)
	} else {
		err = s.st.Register(e.Name, e.Spec, nil, false)
	}
	if err != nil {
		s.persistErrors.Add(1)
	}
	return err
}

// persistBatch is the WAL hook handleMutate threads into
// GraphEntry.Mutate: called under the entry's mutation lock, after the
// batch applied and bumped the version, before the response is sent.
// In the healthy path the append is fsync'd before the ack, which is
// what makes acknowledged batches survive kill -9. When an append
// fails — a disk error, or the version-gap guard catching a batch that
// slipped in before the graph's store entry existed — the entry enters
// degraded mode: the batch is still acked (availability over
// durability, visibly: persistErrors counts every non-durable ack and
// mutate responses carry "persisted"), further appends are skipped
// (they would only widen the gap), and a background compaction is
// scheduled to self-heal by folding the in-memory state into a fresh
// snapshot, after which appends resume.
func (s *Server) persistBatch(e *GraphEntry) func(version uint64, b dynamic.Batch) bool {
	if s.st == nil || !s.st.Has(e.Name) {
		return nil
	}
	return func(version uint64, b dynamic.Batch) bool {
		if e.persistBroken.Load() {
			s.persistErrors.Add(1)
			// Keep nudging the self-heal: a prior attempt may have aborted
			// because a batch landed mid-write (compactGraph coalesces
			// concurrent triggers into one rerun).
			s.scheduleCompact(e.Name)
			return false
		}
		compact, err := s.st.AppendBatch(e.Name, version, b)
		if err != nil {
			s.persistErrors.Add(1)
			if e.persistBroken.CompareAndSwap(false, true) {
				fmt.Fprintf(os.Stderr, "service: graph %q persistence degraded (%v); scheduling compaction to re-sync\n", e.Name, err)
			}
			s.scheduleCompact(e.Name)
			return false
		}
		if compact {
			s.scheduleCompact(e.Name)
		}
		return true
	}
}

// scheduleCompact runs compactGraph in the background, tracked by the
// bg group: Close waits on it before unmapping snapshots the
// compaction may still be reading through the entry's base graph.
// Errors land in persistErrors inside compactGraph.
func (s *Server) scheduleCompact(name string) {
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		_, _ = s.compactGraph(name)
	}()
}

// compactGraph folds one graph's WAL into a fresh snapshot embedding
// the maintained coloring, in two phases so the entry's mutation lock
// is never held across the snapshot file write: capture the immutable
// (graph, colors, version) triple under the lock, write the snapshot
// with traffic flowing, then retake the lock to commit (meta swap +
// WAL reset) — aborting if a mutation advanced the version meanwhile.
// A successful commit also heals degraded persistence: the snapshot
// holds the full in-memory state, so the WAL gap is gone and appends
// resume.
//
// Triggers coalesce rather than drop: one that finds a compaction of
// the graph running sets compactRerun and returns, and the runner
// folds again while the flag is set — checked before it clears
// compacting and once more after, so a request landing between its
// last fold and its exit is taken over, not lost. A fold that aborts
// because a batch moved the version is retried on that batch's own
// threshold trigger, so once writes stop the last trigger's fold lands.
//
// The bool result reports whether the graph is in its fully-folded
// state on return: true after a commit (or when there was nothing to
// fold), false when the attempt was aborted or handed to the running
// compaction — the admin endpoint reports that honestly instead of
// claiming a fold that did not happen.
func (s *Server) compactGraph(name string) (bool, error) {
	if s.st == nil {
		return false, fmt.Errorf("%w: no data directory attached", ErrBadRequest)
	}
	e, err := s.reg.Get(name)
	if err != nil {
		return false, err
	}
	if !s.st.Has(name) {
		return false, fmt.Errorf("%w: graph %q is not persisted", ErrBadRequest, name)
	}
	e.compactRerun.Store(true)
	for e.compacting.CompareAndSwap(false, true) {
		var folded bool
		var err error
		for e.compactRerun.Swap(false) {
			folded, err = s.compactOnce(e, name)
		}
		e.compacting.Store(false)
		if !e.compactRerun.Load() {
			return folded, err
		}
	}
	return false, nil // the running compaction folds again for us
}

// compactOnce is one compactGraph fold attempt; the caller holds the
// entry's compacting flag.
func (s *Server) compactOnce(e *GraphEntry, name string) (bool, error) {
	// A quality adoption landing while the snapshot file is being
	// written aborts the commit exactly like a mutation would — but
	// unlike a mutation it has no later WAL-threshold trigger to retry
	// the fold, so those aborts loop back here (bounded; an adoption
	// requires a strict color-count reduction, so back-to-back
	// collisions die out by themselves).
	for attempt := 0; ; attempt++ {
		e.mu.Lock()
		if e.dyn == nil {
			e.mu.Unlock()
			return true, nil // never mutated: WAL is empty, already folded
		}
		g, err := e.dyn.Snapshot() // memoized: cheap unless no request saw this version yet
		version := e.dyn.Version()
		qgen := e.qualityGen.Load() // same critical section as the colors it describes
		var colors []uint32
		if err == nil {
			colors = e.dyn.Colors()
		}
		e.mu.Unlock()
		if err != nil {
			s.persistErrors.Add(1)
			return false, err
		}
		// Nothing to fold: the durable snapshot already captures this exact
		// version AND the WAL is empty (typical for a repeated
		// /v1/admin/compact before a planned restart), so skip the snapshot
		// rewrite entirely. A non-empty WAL at the same version (crash
		// between a commit's meta swap and WAL reset) still gets folded so
		// its stale bytes are reclaimed. Only when persistence is healthy —
		// degraded mode means in-memory state ran ahead of the log, and
		// versions never decrease, so the versions can't be equal then
		// anyway; the check keeps the self-heal path conservative.
		// A quality adoption at an unchanged version also leaves something
		// to fold: the snapshot's colors are superseded even though the
		// version matches, which the generation pair detects.
		if sv, nrec, svErr := s.st.FoldState(name); svErr == nil && sv == version && nrec == 0 &&
			e.snapQualityGen.Load() == qgen && !e.persistBroken.Load() {
			return true, nil
		}

		pending, err := s.st.BeginCompact(name, g, colors, version)
		if err != nil {
			s.persistErrors.Add(1)
			return false, err
		}

		e.mu.Lock()
		if e.dyn.Version() != version {
			// A batch landed while the snapshot was being written; folding
			// now would erase its WAL record. That batch's threshold
			// trigger sets compactRerun, so the runner folds again.
			pending.Abort()
			e.mu.Unlock()
			return false, nil
		}
		if e.qualityGen.Load() != qgen {
			// A recolor adoption landed mid-write: the snapshot we just
			// wrote carries the superseded colors. Recapture and refold.
			pending.Abort()
			e.mu.Unlock()
			if attempt < 3 {
				continue
			}
			return false, nil
		}
		if err := pending.Commit(); err != nil {
			s.persistErrors.Add(1)
			e.mu.Unlock()
			return false, err
		}
		e.snapQualityGen.Store(qgen)
		e.persistBroken.Store(false)
		e.mu.Unlock()
		return true, nil
	}
}

// Drain blocks until every inflight job has finished (by acquiring the
// whole slot budget), or ctx expires. Jobs arriving afterwards queue
// behind a fully drained semaphore — the caller is shutting down and
// has already stopped the listener.
func (m *Manager) Drain(ctx context.Context) error {
	for i := 0; i < cap(m.sem); i++ {
		select {
		case m.sem <- struct{}{}:
		case <-ctx.Done():
			// Give back what we took: a failed drain must leave the
			// manager serviceable (the caller may retry with more time).
			for j := 0; j < i; j++ {
				<-m.sem
			}
			return fmt.Errorf("service: drain: %d/%d slots still busy: %w", cap(m.sem)-i, cap(m.sem), ctx.Err())
		}
	}
	return nil
}

// Close gracefully shuts the service down: drain inflight jobs, wait
// for background compactions (they read mmap'd base graphs the store
// is about to unmap), then flush and close the store (fsync WALs,
// unmap snapshots). Safe to call without a store. The HTTP listener
// must already be stopped — after Close, served graphs may alias
// unmapped snapshot memory.
func (s *Server) Close(ctx context.Context) error {
	if s.qrun != nil {
		// Stop the quality worker first: its context cancellation
		// preempts an in-flight recolor pass at the next pass boundary,
		// and no new visits may start while the store shuts down.
		s.qrun.Stop()
	}
	if err := s.mgr.Drain(ctx); err != nil {
		return err
	}
	if s.cl != nil {
		// Stop the replication pipes after the drain: every inflight
		// mutation has collected its outcomes by now, so closing only
		// retires idle sender goroutines.
		s.cl.closePipes()
	}
	done := make(chan struct{})
	go func() {
		s.bg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("service: close: background compaction still running: %w", ctx.Err())
	}
	if s.st != nil {
		return s.st.Close()
	}
	return nil
}

// adminCompactRequest is the POST /v1/admin/compact body. An empty
// graph name compacts every persisted graph.
type adminCompactRequest struct {
	Graph string `json:"graph"`
}

type adminCompactResponse struct {
	// Compacted lists graphs whose WAL is folded on return; Skipped
	// lists graphs whose fold did not land this time (a concurrent
	// compaction was mid-write, or mutations kept advancing the version
	// during the snapshot write) — re-POST to retry.
	Compacted []string `json:"compacted"`
	Skipped   []string `json:"skipped,omitempty"`
	// Failed maps graphs whose compaction errored to the error text.
	// Compact-all returns 200 with the full per-graph outcome rather
	// than aborting on the first failure and discarding what folded.
	Failed map[string]string `json:"failed,omitempty"`
	Store  store.Stats       `json:"store"`
}
