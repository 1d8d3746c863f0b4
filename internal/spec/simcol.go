package spec

import (
	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/par"
)

// simColState is the shared state threaded through the per-partition
// SIM-COL invocations of DEC-ADG (Algorithm 4's bitmaps and ranks).
type simColState struct {
	g    *graph.Graph
	rank []uint32 // ADG partition index of each vertex
	same []int32  // neighbors in v's own partition
	span []uint32 // color range ⌈(1+µ)·deg_ℓ(v)⌉ (≥ deg_ℓ+1)
	// Bv, v's forbidden colors (1-based bit index), is the bitmap over
	// colors 0..span[v] that starts at words[woff[v]].
	words  []uint64
	woff   []int
	colors []uint32
	seed   uint64
	p      int

	// Scratch for the partition being colored, reused across partitions.
	// The vertex at position i of the partition keeps its still-active
	// neighbors in the partition, N_U(v), in adj[off[i]:end[i]];
	// lost[i] reports that it lost the current round.
	adj  []uint32
	off  []int64
	end  []int64
	lost []bool
}

// newSimColState precomputes spans, same-partition degrees and bitmaps
// for all vertices. Bv holds span(v)+1 bits: colors above v's own range
// can never be chosen by v, so they need not be tracked (the storage
// argument of §IV-B). All bitmaps share one word arena.
func newSimColState(g *graph.Graph, rank []uint32, mu float64, seed uint64, p int) *simColState {
	n := g.NumVertices()
	st := &simColState{
		g:      g,
		rank:   rank,
		same:   make([]int32, n),
		span:   make([]uint32, n),
		woff:   make([]int, n),
		colors: make([]uint32, n),
		seed:   seed,
		p:      p,
		off:    make([]int64, n+1),
		end:    make([]int64, n),
		lost:   make([]bool, n),
	}
	par.ForBlocksWeighted(p, g.Offsets(), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			st.initVertex(g, rank, mu, v)
		}
	})
	words := 0
	for v, s := range st.span {
		st.woff[v] = words
		words += bitmapWords(s)
	}
	st.words = make([]uint64, words)
	return st
}

// forbidden returns Bv, the bitmap of v's forbidden colors.
func (st *simColState) forbidden(v uint32) bitset.Set {
	return bitset.FromWords(st.words[st.woff[v]:], int(st.span[v])+1)
}

// bitmapWords is the word count of a bitmap over colors 0..span.
func bitmapWords(span uint32) int {
	return (int(span) + 64) / 64
}

// initVertex computes the span, from deg_ℓ, and the same-partition
// degree of one vertex.
func (st *simColState) initVertex(g *graph.Graph, rank []uint32, mu float64, v int) {
	var c, same int32
	rv := rank[v]
	for _, u := range g.Neighbors(uint32(v)) {
		if rank[u] >= rv {
			c++
		}
		if rank[u] == rv {
			same++
		}
	}
	st.same[v] = same
	span := int64(float64(c) * (1 + mu))
	if float64(span) < float64(c)*(1+mu) {
		span++
	}
	if span < int64(c)+1 {
		span = int64(c) + 1 // always at least one free color
	}
	if span < 1 {
		span = 1
	}
	st.span[v] = uint32(span)
}

// markForbidden records color c as unusable for v, ignoring colors beyond
// v's own range (they cannot collide with v's draws).
func (st *simColState) markForbidden(v uint32, c uint32) {
	if c <= st.span[v] {
		bv := st.forbidden(v)
		bv.Set(int(c))
	}
}

// loadPartition prepares partition rl for simCol in one scan of each
// vertex's adjacency list (Algorithm 4, lines 16-18): it pulls the colors
// of the neighbors in higher, already colored partitions into Bv, and
// copies the neighbors in rl itself into the vertex's list in st.adj.
//
// Partitions are colored from the highest down, so exactly the
// neighbors in higher partitions are colored, and the scan takes no
// branch that depends on the data: it sets Bv's bit for every
// neighbor's color (an uncolored one's 0, like a color past v's range,
// lands in bit 0, which simCol never reads), and stores every neighbor
// into v's list at an index that advances only past a same-partition
// one. Each list has one pad slot past its end, which takes the store
// of a last arc that is not same-partition, so parallel blocks never
// write into each other's lists.
func (st *simColState) loadPartition(part []uint32, rl uint32) {
	off := st.off[:len(part)+1]
	var total int64
	for i, v := range part {
		off[i] = total
		total += int64(st.same[v]) + 1
	}
	off[len(part)] = total
	if int64(cap(st.adj)) < total {
		st.adj = make([]uint32, total)
	}
	adj, end, g := st.adj, st.end, st.g
	par.ForWeightedBy(st.p, len(part), func(i int) int64 {
		return int64(g.Degree(part[i]))
	}, func(i int) {
		v := part[i]
		k := off[i]
		end[i] = k + loadLists(st.forbidden(v), st.span[v], g.Neighbors(v), st.colors, st.rank, rl, adj[k:])
	})
}

// loadLists is loadPartition's scan of one vertex's neighbors ns: it
// sets bv's bit for each neighbor's color up to span (0 for one past
// it) and stores ns into list at an index that advances only past a
// neighbor of rank rl, returning how many there are. list must hold
// their count plus one.
func loadLists(bv bitset.Set, span uint32, ns, colors, rank []uint32, rl uint32, list []uint32) int64 {
	var k int64
	for _, u := range ns {
		c := colors[u]
		// The mask is all ones exactly when c <= span.
		c &= uint32((int64(c) - int64(span) - 1) >> 63)
		bv.Set(int(c))
		list[k] = u
		if rank[u] == rl {
			k++
		}
	}
	return k
}

// simCol colors one partition (Algorithm 5). part lists the vertices of
// partition ℓ, and loadPartition must have prepared it. Every round reads
// only the lists of the vertices still uncolored, which hold exactly
// their uncolored neighbors in ℓ, N_U(v). Returns (rounds, conflicts,
// edgesScanned), where edgesScanned counts the list entries conflict
// detection read.
func (st *simColState) simCol(part []uint32, itrRule bool, prio []uint32) (int, int64, int64) {
	p := st.p
	adj, off, end, lost := st.adj, st.off, st.end, st.lost
	// u holds the positions in part of the uncolored vertices.
	u := make([]uint32, len(part))
	for i := range u {
		u[i] = uint32(i)
	}
	rounds := 0
	var conflicts, edges int64
	colors := st.colors
	for len(u) > 0 {
		rounds++
		// Part 1: tentative colors.
		par.For(p, len(u), func(i int) {
			v := part[u[i]]
			if itrRule {
				// DEC-ADG-ITR (§IV-C): smallest color not in Bv.
				bv := st.forbidden(v)
				c := bv.NextClear(1)
				if c < 0 {
					// Cannot happen: span ≥ deg_ℓ+1 > |Bv|; guard anyway.
					c = int(st.span[v])
				}
				colors[v] = uint32(c)
			} else {
				colors[v] = roundColor(st.seed, rounds, v, st.span[v])
			}
		})
		// Part 2: conflict detection (pull-style Reduce over N_U(v)),
		// balanced by list length.
		var roundConf int64
		par.ForWorkersWeightedBy(p, len(u), nil, func(i int) int64 {
			return end[u[i]] - off[u[i]]
		}, func(w, lo, hi int) {
			var local int64
			var scanned int64
			for i := lo; i < hi; i++ {
				k := u[i]
				v := part[k]
				cv := colors[v]
				bv := st.forbidden(v)
				bad := bv.Test(int(cv))
				ns := adj[off[k]:end[k]]
				scanned += int64(len(ns))
				if !bad {
					for _, nb := range ns {
						if colors[nb] == cv {
							if !itrRule || loses(v, nb, prio) {
								bad = true
								break
							}
						}
					}
				}
				lost[k] = bad
				if bad {
					local++
				}
			}
			par.FetchAdd64(&roundConf, local)
			par.FetchAdd64(&edges, scanned)
		})
		conflicts += roundConf
		// Part 3: finalize winners, clear losers...
		par.For(p, len(u), func(i int) {
			if k := u[i]; lost[k] {
				colors[part[k]] = 0
			}
		})
		// ...then pull the winners' colors into the losers' bitmaps and
		// drop the winners from the losers' lists.
		par.For(p, len(u), func(i int) {
			k := u[i]
			if !lost[k] {
				return
			}
			v := part[k]
			keep := off[k]
			for _, nb := range adj[off[k]:end[k]] {
				if c := colors[nb]; c != 0 {
					st.markForbidden(v, c)
				} else {
					adj[keep] = nb
					keep++
				}
			}
			end[k] = keep
		})
		next := par.Pack(p, len(u), func(i int) bool { return lost[u[i]] })
		nu := make([]uint32, len(next))
		par.For(p, len(next), func(i int) { nu[i] = u[next[i]] })
		u = nu
	}
	return rounds, conflicts, edges
}

// loses reports whether v loses the tie against neighbor nb under the
// random priorities prio (higher priority wins; ties by ID cannot occur
// since prio is a permutation).
func loses(v, nb uint32, prio []uint32) bool {
	return prio[nb] > prio[v]
}
