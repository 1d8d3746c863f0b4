// Package mex is the smallest-free-color kernel that every greedy-style
// coloring step shares: JP's GetColor, the sequential Greedy schemes,
// iterated greedy, ITR/ITRB/GM's tentative colors, the speculative sweep
// and the localized repair. A vertex takes the smallest color >= 1 (the
// minimum excluded value, "mex") that none of its already-colored
// neighbors holds.
//
// The forbidden set is an epoch-stamped array: Reset starts a new
// vertex in O(1) by bumping the epoch, so nothing is cleared between
// vertices. A vertex with k forbidden colors gets a color of at most
// k+1, so a set sized for degree Δ tracks colors 1..Δ+1 and ignores the
// rest.
package mex

// Set is a forbidden-color set for one worker. It is not safe for
// concurrent use; parallel loops keep one Set per worker.
type Set struct {
	stamp []uint64
	epoch uint64
}

// New returns a set for vertices of degree at most maxDeg: it tracks
// colors 1..maxDeg+1, every color such a vertex can receive.
func New(maxDeg int) Set {
	return Set{stamp: make([]uint64, maxDeg+2), epoch: 1}
}

// Reset empties the set in O(1).
func (s *Set) Reset() { s.epoch++ }

// Forbid marks color c as taken. Colors past the set's range are
// ignored: a vertex within the degree bound never needs them. Color 0
// (uncolored) needs no check, because Smallest starts at 1.
func (s *Set) Forbid(c uint32) {
	if uint(c) < uint(len(s.stamp)) {
		s.stamp[c] = s.epoch
	}
}

// Forbidden reports whether color c was forbidden since the last
// Reset; a color past the set's range never is.
func (s *Set) Forbidden(c uint32) bool {
	return uint(c) < uint(len(s.stamp)) && s.stamp[c] == s.epoch
}

// Smallest returns the smallest color >= 1 not forbidden since the last
// Reset.
func (s *Set) Smallest() uint32 {
	c := uint32(1)
	for s.stamp[c] == s.epoch {
		c++
	}
	return c
}

// Greedy returns the smallest color >= 1 that no vertex of neighbors
// holds in colors, where 0 means uncolored.
func (s *Set) Greedy(neighbors, colors []uint32) uint32 {
	s.Reset()
	for _, u := range neighbors {
		s.Forbid(colors[u])
	}
	return s.Smallest()
}
