// Package shard implements the horizontal sharding layer: a
// consistent-hash ring keyed on project ID, a health tracker that detects
// down shards and re-admits them after restart, and an HTTP router that
// fronts N independent icrowd-server instances — forwarding every request
// of a project to the one shard that owns it, and rolling the fleet-wide
// views (project list, healthz/readyz, Prometheus metrics, traces, SLO
// burn rates) up across all of them.
//
// The partitioning unit is the project: each project lives on exactly one
// shard, which runs the paper's algorithm over it unmodified — every
// microtask gets its k answers, and its consensus and accuracy estimates
// see all of them — while the shard's lease, idempotency and event-log
// machinery give the single-server crash-recovery guarantees with no
// cross-shard coordination. A down shard takes only its own projects out
// of service — the router answers for them with a typed 503
// shard_unavailable and Retry-After while the survivors keep serving
// theirs — and a restarted shard replays its own event logs and rejoins
// the ring with its state intact.
package shard

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultReplicas is the virtual-node count per shard. 128 points per
// shard keeps the worst-case key imbalance within a few percent for small
// fleets while the ring stays tiny (N*128 points).
const DefaultReplicas = 128

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring: keys map to nodes, and adding or
// removing a node only remaps the keys that node owns (plus the slivers
// its virtual nodes steal), never the mapping between two untouched nodes.
// All methods are safe for concurrent use.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	points   []point // sorted by (hash, node)
	nodes    map[string]bool
}

// NewRing creates an empty ring with the given virtual-node count per
// node (<= 0 uses DefaultReplicas).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, nodes: map[string]bool{}}
}

// Add places node's virtual nodes on the ring (no-op when present).
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, point{hash: hash64(node + "#" + strconv.Itoa(i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Remove takes node's virtual nodes off the ring (no-op when absent).
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Get returns the node owning key ("" on an empty ring): the first virtual
// node at or clockwise of the key's hash.
func (r *Ring) Get(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].node
}

// Nodes returns the member nodes, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// hash64 is the ring's hash: FNV-1a (stdlib-only, stable across processes
// and restarts — the mapping must not depend on process state, or a
// restarted router would re-partition every project) pushed through a
// splitmix64 finalizer. Raw FNV-1a of near-identical strings ("s#0",
// "s#1", …) clusters on the ring badly enough that one of eight shards
// can own >2x its fair share; the avalanche step spreads the points.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
