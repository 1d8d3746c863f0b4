// Package quality is colord's quality-SLO engine: per-graph coloring
// quality as an operable, observable service dimension instead of a
// one-shot property of a color request. A Tracker records each graph's
// maintained color count against an optional targetColors objective
// (the SLO), and a Runner drives idle-time iterated-greedy recoloring
// passes (internal/recolor) that only ever tighten those counts — the
// Sarıyüce et al. iterative-recoloring result turned into a daemon
// feature.
//
// The package owns state and scheduling only; what a "pass" does (run
// recolor.IteratedGreedyContext over a registered graph's maintained
// coloring, adopt strict improvements, persist and replicate them) is
// injected by the service layer, which keeps quality free of service
// imports and independently testable.
package quality

import (
	"sync"
	"time"
)

// SLO states reported by State.SLO: a graph with no objective has
// nothing to meet; with one, it is either met or burning.
const (
	SLONone    = "none"
	SLOMet     = "met"
	SLOBurning = "burning"
)

// State is one graph's quality record.
type State struct {
	// Colors is the maintained coloring's distinct color count as of
	// the last observation (0: no maintained coloring seen yet).
	Colors int `json:"colors"`
	// InitialColors is the count at first observation — the "before"
	// that ColorsSaved measures against.
	InitialColors int `json:"initialColors,omitempty"`
	// TargetColors is the objective (0: none set).
	TargetColors int `json:"targetColors,omitempty"`
	// Version is the graph version Colors was observed at.
	Version uint64 `json:"version"`
	// Passes counts iterated-greedy passes run over this graph;
	// Improvements counts adopted strict reductions; ColorsSaved sums
	// the colors those adoptions removed.
	Passes       int64 `json:"passes"`
	Improvements int64 `json:"improvements"`
	ColorsSaved  int64 `json:"colorsSaved"`
	// LastPassUnix / LastImprovementUnix timestamp worker activity
	// (Unix seconds; 0: never).
	LastPassUnix        int64 `json:"lastPassUnix,omitempty"`
	LastImprovementUnix int64 `json:"lastImprovementUnix,omitempty"`
}

// SLO classifies the state against its objective.
func (s State) SLO() string {
	switch {
	case s.TargetColors <= 0:
		return SLONone
	case s.Colors > 0 && s.Colors <= s.TargetColors:
		return SLOMet
	default:
		return SLOBurning
	}
}

// Met reports whether the objective is currently met (false when no
// objective is set — use SLO to distinguish).
func (s State) Met() bool { return s.SLO() == SLOMet }

// Tracker holds per-graph quality state. Safe for concurrent use.
type Tracker struct {
	mu     sync.Mutex
	graphs map[string]*State
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{graphs: make(map[string]*State)}
}

func (t *Tracker) get(name string) *State {
	s := t.graphs[name]
	if s == nil {
		s = &State{}
		t.graphs[name] = s
	}
	return s
}

// Observe records the maintained color count at a version — called when
// a coloring first exists, after mutations repair it, and after
// adoptions. The first observation also pins InitialColors.
func (t *Tracker) Observe(name string, colors int, version uint64) {
	if colors <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.get(name)
	if s.InitialColors == 0 {
		s.InitialColors = colors
	}
	s.Colors = colors
	s.Version = version
}

// SetTarget sets (or, with 0, clears) the graph's targetColors
// objective.
func (t *Tracker) SetTarget(name string, target int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.get(name).TargetColors = target
}

// RecordPass accounts one worker visit: passes spent, and — when the
// visit's result was adopted — the colors it saved.
func (t *Tracker) RecordPass(name string, passes, saved int, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.get(name)
	s.Passes += int64(passes)
	s.LastPassUnix = now.Unix()
	if saved > 0 {
		s.Improvements++
		s.ColorsSaved += int64(saved)
		s.LastImprovementUnix = now.Unix()
	}
}

// Get returns the graph's state and whether the tracker knows it.
func (t *Tracker) Get(name string) (State, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.graphs[name]
	if !ok {
		return State{}, false
	}
	return *s, true
}

// Remove drops a graph's state.
func (t *Tracker) Remove(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.graphs, name)
}

// Snapshot returns a copy of every graph's state.
func (t *Tracker) Snapshot() map[string]State {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]State, len(t.graphs))
	for name, s := range t.graphs {
		out[name] = *s
	}
	return out
}

// Totals sums the worker counters across graphs.
func (t *Tracker) Totals() (passes, improvements, colorsSaved int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.graphs {
		passes += s.Passes
		improvements += s.Improvements
		colorsSaved += s.ColorsSaved
	}
	return passes, improvements, colorsSaved
}
