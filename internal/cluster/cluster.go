// Package cluster turns N independent colord processes into one
// logical coloring service: static membership from a peer list,
// periodic /healthz-based liveness, and rendezvous (highest-random-
// weight) hashing to place every graph on a primary plus R-1 replicas
// — so any node computes ownership locally, with no coordinator and no
// placement state to replicate.
//
// The package deliberately stops at membership + placement. Routing,
// WAL-stream replication and failover catch-up live in the service
// layer (internal/service/cluster.go), which composes them with the
// registry and store; cmd/colord wires the flags.
//
// Liveness model: fail-stop. A node is marked down after FailAfter
// consecutive probe failures (background prober) or reported failures
// (the service layer feeds proxy/replication transport errors in, so
// failover does not have to wait out a probe interval). Every
// alive<->down transition bumps the cluster epoch; the service layer
// uses the epoch to decide when a primary must re-verify it is caught
// up before accepting writes. Failback races are bounded by the probe
// interval; the service layer fences a deposed primary with write
// leases and detects a forked chain on the replication stream (see
// internal/service).
package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/retry"
)

// Config parameterizes New.
type Config struct {
	// Self is this node's base URL (how peers reach it). Required.
	Self string
	// Peers are the base URLs of every cluster member. Self is added
	// if absent, so "-cluster-peers a,b,c" works whether or not the
	// operator repeated the node's own URL.
	Peers []string
	// Replicas is the placement set size: primary + Replicas-1 replica
	// nodes per graph, clamped to the member count. <= 0 selects
	// min(2, members).
	Replicas int
	// ProbeInterval is the /healthz probe period (0: DefaultProbeInterval).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (0: DefaultProbeTimeout).
	ProbeTimeout time.Duration
	// FailAfter is how many consecutive failures (probes or reported
	// transport errors) mark a node down (<= 0: DefaultFailAfter).
	FailAfter int
	// LeaseDuration enables primary write leases (see lease.go): before
	// acking a write, the active primary must hold unexpired grants
	// from a majority of the FULL member set, renewed when under a
	// quarter term remains. 0 disables leases (the pre-lease fail-stop
	// behavior — failback races are detected, not prevented). Sensible
	// values are a small multiple of ProbeInterval; colord's auto mode
	// uses 4x.
	LeaseDuration time.Duration
}

// Defaults for the zero Config values.
const (
	DefaultProbeInterval = time.Second
	DefaultProbeTimeout  = 2 * time.Second
	DefaultFailAfter     = 2
)

// nodeState is the liveness record of one peer.
type nodeState struct {
	alive     bool
	fails     int
	lastErr   string
	lastProbe time.Time
}

// NodeStatus is the /v1/cluster/status view of one member.
type NodeStatus struct {
	URL              string    `json:"url"`
	Self             bool      `json:"self"`
	Alive            bool      `json:"alive"`
	ConsecutiveFails int       `json:"consecutiveFails,omitempty"`
	LastError        string    `json:"lastError,omitempty"`
	LastProbe        time.Time `json:"lastProbe,omitempty"`
}

// Cluster is the membership + placement view of one node. Safe for
// concurrent use.
type Cluster struct {
	self      string
	nodes     []string // sorted, deduped, includes self
	replicas  int
	interval  time.Duration
	failAfter int
	leaseDur  time.Duration
	client    *http.Client

	mu    sync.Mutex
	state map[string]*nodeState
	epoch atomic.Uint64

	leaseTable

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// normalizeURL strips the trailing slash so "http://a:1/" and
// "http://a:1" name the same member.
func normalizeURL(u string) string { return strings.TrimRight(u, "/") }

// New validates cfg and builds the cluster view. Probing does not run
// until Start; until then liveness changes only through ReportFailure
// and ReportSuccess (which is also how tests drive deterministic
// membership transitions).
func New(cfg Config) (*Cluster, error) {
	self := normalizeURL(cfg.Self)
	if self == "" {
		return nil, fmt.Errorf("cluster: Self base URL is required")
	}
	seen := map[string]bool{}
	var nodes []string
	for _, p := range append([]string{self}, cfg.Peers...) {
		p = normalizeURL(p)
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer URL")
		}
		if !strings.HasPrefix(p, "http://") && !strings.HasPrefix(p, "https://") {
			return nil, fmt.Errorf("cluster: peer %q: want an http(s):// base URL", p)
		}
		if !seen[p] {
			seen[p] = true
			nodes = append(nodes, p)
		}
	}
	sort.Strings(nodes)
	r := cfg.Replicas
	if r <= 0 {
		r = 2
	}
	if r > len(nodes) {
		r = len(nodes)
	}
	interval := cfg.ProbeInterval
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	timeout := cfg.ProbeTimeout
	if timeout <= 0 {
		timeout = DefaultProbeTimeout
	}
	failAfter := cfg.FailAfter
	if failAfter <= 0 {
		failAfter = DefaultFailAfter
	}
	if cfg.LeaseDuration < 0 {
		return nil, fmt.Errorf("cluster: LeaseDuration must be >= 0")
	}
	c := &Cluster{
		self:      self,
		nodes:     nodes,
		replicas:  r,
		interval:  interval,
		failAfter: failAfter,
		leaseDur:  cfg.LeaseDuration,
		client:    &http.Client{Timeout: timeout, Transport: faultinject.Transport(nil)},
		state:     make(map[string]*nodeState),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for _, n := range nodes {
		c.state[n] = &nodeState{alive: true} // optimistic until proven down
	}
	c.epoch.Store(1)
	return c, nil
}

// Self returns this node's normalized base URL.
func (c *Cluster) Self() string { return c.self }

// Nodes returns the sorted member list (self included).
func (c *Cluster) Nodes() []string { return append([]string(nil), c.nodes...) }

// Replicas returns the placement set size.
func (c *Cluster) Replicas() int { return c.replicas }

// Epoch returns the membership epoch: bumped on every alive<->down
// transition. The service layer re-verifies a graph's sync state once
// per epoch before accepting writes for it.
func (c *Cluster) Epoch() uint64 { return c.epoch.Load() }

// Alive reports whether url is currently considered alive. Self is
// always alive. Unknown URLs are dead.
func (c *Cluster) Alive(url string) bool {
	url = normalizeURL(url)
	if url == c.self {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.state[url]
	return ok && st.alive
}

// ReportFailure feeds one transport failure against url into the
// liveness state — the service layer calls it when a proxy or
// replication POST fails, so a crashed primary is demoted after
// FailAfter failed requests instead of waiting out the probe interval.
func (c *Cluster) ReportFailure(url string, err error) {
	url = normalizeURL(url)
	if url == c.self {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.state[url]
	if !ok {
		return
	}
	st.fails++
	if err != nil {
		st.lastErr = err.Error()
	}
	if st.alive && st.fails >= c.failAfter {
		st.alive = false
		c.epoch.Add(1)
	}
}

// ReportSuccess feeds one successful exchange with url into the
// liveness state, resurrecting a down node immediately.
func (c *Cluster) ReportSuccess(url string) {
	url = normalizeURL(url)
	if url == c.self {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.state[url]
	if !ok {
		return
	}
	st.fails = 0
	st.lastErr = ""
	if !st.alive {
		st.alive = true
		c.epoch.Add(1)
	}
}

// Status snapshots every member's liveness, self first then sorted.
func (c *Cluster) Status() []NodeStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeStatus, 0, len(c.nodes))
	for _, n := range c.nodes {
		st := c.state[n]
		ns := NodeStatus{
			URL:              n,
			Self:             n == c.self,
			Alive:            st.alive || n == c.self,
			ConsecutiveFails: st.fails,
			LastError:        st.lastErr,
			LastProbe:        st.lastProbe,
		}
		out = append(out, ns)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self
		}
		return out[i].URL < out[j].URL
	})
	return out
}

// Start launches the background /healthz prober. Idempotent.
func (c *Cluster) Start() {
	c.startOnce.Do(func() {
		go c.probeLoop()
	})
}

// Stop terminates the prober (if started) and waits for it to exit.
func (c *Cluster) Stop() {
	select {
	case <-c.stop:
		return // already stopped
	default:
	}
	close(c.stop)
	c.startOnce.Do(func() { close(c.done) }) // never started: unblock the wait
	<-c.done
}

func (c *Cluster) probeLoop() {
	defer close(c.done)
	// ±20% jitter per round: a fleet restarted together (deploy, power
	// event) must not probe in lockstep forever — synchronized rounds
	// hit every peer with a burst of /healthz at the same instant and
	// make failure detection latencies correlate across the fleet.
	t := time.NewTimer(retry.Jittered(c.interval, 0.2, nil))
	defer t.Stop()
	c.probeAll()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
			t.Reset(retry.Jittered(c.interval, 0.2, nil))
		}
	}
}

// probeAll probes every peer once, in parallel (a dead peer must not
// serialize the round behind its timeout).
func (c *Cluster) probeAll() {
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		if n == c.self {
			continue
		}
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			err := c.probe(url)
			c.mu.Lock()
			if st, ok := c.state[url]; ok {
				st.lastProbe = time.Now()
			}
			c.mu.Unlock()
			if err != nil {
				c.ReportFailure(url, err)
			} else {
				c.ReportSuccess(url)
			}
		}(n)
	}
	wg.Wait()
}

func (c *Cluster) probe(url string) error {
	resp, err := c.client.Get(url + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return nil
}
