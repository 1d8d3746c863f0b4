package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/verify"
)

// The read workloads request every (algorithm, seed) pair below at ε 0.01:
// three of the paper's algorithms, eight seeds each, 24 keys in all.
var keyAlgos = []string{"JP-ADG", "DEC-ADG-ITR", "SPEC-ADG"}

const (
	keySeeds = 8
	keyEps   = 0.01
)

type key struct {
	algo string
	seed uint64
}

func allKeys() []key {
	var ks []key
	for _, a := range keyAlgos {
		for s := uint64(1); s <= keySeeds; s++ {
			ks = append(ks, key{a, s})
		}
	}
	return ks
}

// path is the key's GET /v1/color/bin request path.
func (k key) path(noCache bool) string {
	p := fmt.Sprintf("/v1/color/bin?graph=%s&algorithm=%s&seed=%d&eps=%g", graphName, k.algo, k.seed, keyEps)
	if noCache {
		p += "&noCache=1"
	}
	return p
}

// keyOrder yields key indices in a seeded order: a fresh permutation of
// all keys per cycle, different for each connection.
type keyOrder struct {
	rng  *rand.Rand
	perm []int
	i    int
}

func newKeyOrder(seed uint64, stream uint64, n int) *keyOrder {
	return &keyOrder{rng: rand.New(rand.NewPCG(seed, stream)), perm: make([]int, n), i: n}
}

func (o *keyOrder) next() int {
	if o.i == len(o.perm) {
		for j := range o.perm {
			o.perm[j] = j
		}
		o.rng.Shuffle(len(o.perm), func(a, b int) { o.perm[a], o.perm[b] = o.perm[b], o.perm[a] })
		o.i = 0
	}
	o.i++
	return o.perm[o.i-1]
}

// checkKeyBodies verifies the binary colorings of all keys against the
// benchmark's own graph: header fields, properness and the color count.
// It returns the decoded colorings, the sum of their color counts and
// the duration of each verify.CheckProper call in milliseconds.
func checkKeyBodies(g *graph.Graph, ks []key, bodies [][]byte) (colorings [][]uint32, colors int, checkMs []float64, err error) {
	for i, b := range bodies {
		version, seed, eps, nc, cols, err := service.DecodeColorBin(b)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("key %v: %w", ks[i], err)
		}
		if version != 0 || seed != ks[i].seed || eps != keyEps {
			return nil, 0, nil, fmt.Errorf("key %v: header says version %d seed %d eps %g", ks[i], version, seed, eps)
		}
		start := time.Now()
		if err := verify.CheckProper(g, cols); err != nil {
			return nil, 0, nil, fmt.Errorf("key %v: %w", ks[i], err)
		}
		checkMs = append(checkMs, msSince(start))
		if got := verify.NumColors(cols); got != nc {
			return nil, 0, nil, fmt.Errorf("key %v: header says %d colors, coloring has %d", ks[i], nc, got)
		}
		colorings = append(colorings, cols)
		colors += nc
	}
	return colorings, colors, checkMs, nil
}

// sameBodies reports the first key whose body differs between a and b.
func sameBodies(ks []key, a, b [][]byte) error {
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return fmt.Errorf("key %v: coloring differs between set-ups", ks[i])
		}
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
