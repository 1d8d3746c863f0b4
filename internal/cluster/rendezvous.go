package cluster

import (
	"hash/fnv"
	"io"
	"sort"
)

// Rendezvous (highest-random-weight) placement: every node scores
// every (node, graph) pair with the same hash, and a graph's
// preference order is the nodes sorted by descending score. The first
// Replicas nodes are the placement set (primary first); failover walks
// the same order, so every member computes identical ownership from
// nothing but the static member list — no coordinator, no rebalancing
// state, and adding a node would move only ~1/N of the graphs.

// score hashes a (node, graph) pair. FNV-1a gives a cheap
// well-distributed 64-bit base; the splitmix64 finalizer on top
// decorrelates the per-node streams (FNV alone keeps too much
// structure between inputs sharing long prefixes, and placement
// quality is exactly per-graph decorrelation across nodes).
func score(node, graph string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, graph)
	h.Write([]byte{0})
	io.WriteString(h, node)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Order returns the full rendezvous preference order for graph: every
// member, highest score first (URL order breaks exact ties so the
// result is total and identical on every node).
func (c *Cluster) Order(graph string) []string {
	out := append([]string(nil), c.nodes...)
	scores := make(map[string]uint64, len(out))
	for _, n := range out {
		scores[n] = score(n, graph)
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := scores[out[i]], scores[out[j]]
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}

// Placement returns the placement set for graph: the first Replicas
// nodes of the rendezvous order. The set is liveness-independent —
// a node crash never reshuffles which nodes hold a graph's data, it
// only changes which member of the set is accepting writes.
func (c *Cluster) Placement(graph string) []string {
	return c.Order(graph)[:c.replicas]
}

// InPlacement reports whether url is in graph's placement set.
func (c *Cluster) InPlacement(graph, url string) bool {
	url = normalizeURL(url)
	for _, n := range c.Placement(graph) {
		if n == url {
			return true
		}
	}
	return false
}

// OwnsLocally reports whether this node is in graph's placement set.
func (c *Cluster) OwnsLocally(graph string) bool {
	return c.InPlacement(graph, c.self)
}

// ActivePrimary returns the node currently accepting writes for
// graph: the first alive member of the placement set. ok is false when
// the whole set is down (the graph is unavailable for writes — and for
// proxied reads from non-placement nodes — until a member returns).
func (c *Cluster) ActivePrimary(graph string) (string, bool) {
	for _, n := range c.Placement(graph) {
		if c.Alive(n) {
			return n, true
		}
	}
	return "", false
}

// IsActivePrimary reports whether this node is the current write
// owner of graph.
func (c *Cluster) IsActivePrimary(graph string) bool {
	p, ok := c.ActivePrimary(graph)
	return ok && p == c.self
}
