package mrrg

import (
	"strconv"
	"sync"
	"sync/atomic"

	"rewire/internal/arch"
)

// Graphs are immutable after New returns, so one Graph can back every
// session of the same (architecture, II) pair — across the II sweep of a
// single mapping run, across eval worker goroutines, and across
// rewire-serve requests — instead of being rebuilt per attempt. Shared
// implements that: an architecture+II-keyed, concurrency-safe cache.
//
// Invariants the cache relies on (see docs/PERFORMANCE.md):
//
//   - a Graph is never mutated after construction; all mutable occupancy
//     lives in State, which is per-session;
//   - an arch.CGRA must not be mutated after its first use in a session.
//     The key is a fingerprint of every field that feeds construction,
//     so mutating a CGRA and calling Shared again yields a fresh Graph —
//     but sessions built before the mutation keep the old one.
var shared struct {
	mu sync.Mutex
	m  map[string]*Graph
	// order remembers insertion order for the bounded eviction below.
	order []string

	hits, misses atomic.Int64
}

// maxSharedGraphs bounds the cache. An II sweep touches at most a few
// dozen (arch, II) pairs; the bound only matters for a long-lived server
// fed a stream of distinct custom architectures, where evicting the
// oldest entry (sessions holding it keep it alive; it is simply rebuilt
// if requested again) beats unbounded growth.
const maxSharedGraphs = 128

// CacheStats reports cumulative Shared hits and misses; the metrics
// exporter publishes them as rewire_mrrg_cache_{hits,misses}_total.
func CacheStats() (hits, misses int64) {
	return shared.hits.Load(), shared.misses.Load()
}

// Shared returns the MRRG of cgra time-extended to ii cycles, building
// it at most once per (architecture fingerprint, II) and sharing the
// immutable result across callers. Safe for concurrent use.
func Shared(cgra *arch.CGRA, ii int) *Graph {
	// The key is built into a stack buffer and looked up via the
	// no-copy map[string]([]byte) form, so the hit path allocates
	// nothing; the string is materialised only when storing a miss.
	var buf [512]byte
	kb := appendArchKey(buf[:0], cgra, ii)
	shared.mu.Lock()
	if g, ok := shared.m[string(kb)]; ok {
		shared.mu.Unlock()
		shared.hits.Add(1)
		return g
	}
	shared.mu.Unlock()
	// Build outside the lock: construction is the expensive part and two
	// racing builders of the same key produce interchangeable graphs.
	g := New(cgra, ii)
	key := string(kb)
	shared.mu.Lock()
	defer shared.mu.Unlock()
	if cached, ok := shared.m[key]; ok {
		shared.hits.Add(1)
		return cached
	}
	shared.misses.Add(1)
	if shared.m == nil {
		shared.m = map[string]*Graph{}
	}
	for len(shared.order) >= maxSharedGraphs {
		delete(shared.m, shared.order[0])
		shared.order = shared.order[1:]
	}
	shared.m[key] = g
	shared.order = append(shared.order, key)
	return g
}

// ArchFingerprint canonically serialises every CGRA field that Graph
// construction (or a consumer of Graph.Arch) can observe. Name is
// included deliberately: two same-shape architectures with different
// names stay distinct, so Graph.Arch never aliases a CGRA the caller
// did not pass in. It is exported so the result-level mapping cache
// (internal/resultcache) keys on the exact same notion of architecture
// identity as the substrate caches.
func ArchFingerprint(c *arch.CGRA) string {
	return string(appendArchFingerprint(nil, c))
}

// appendArchFingerprint appends ArchFingerprint(c) to dst byte-for-byte.
// It exists so Shared can build its lookup key into a stack buffer and
// probe the cache without allocating on the hit path.
func appendArchFingerprint(dst []byte, c *arch.CGRA) []byte {
	dst = append(dst, c.Name...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(c.Rows), 10)
	dst = append(dst, 'x')
	dst = strconv.AppendInt(dst, int64(c.Cols), 10)
	dst = append(dst, "|r"...)
	dst = strconv.AppendInt(dst, int64(c.Regs), 10)
	dst = append(dst, "|b"...)
	dst = strconv.AppendInt(dst, int64(c.Banks), 10)
	dst = append(dst, "|t"...)
	dst = strconv.AppendBool(dst, c.Torus)
	dst = append(dst, "|m"...)
	for _, m := range c.MemPE {
		if m {
			dst = append(dst, '1')
		} else {
			dst = append(dst, '0')
		}
	}
	dst = append(dst, "|c"...)
	for _, m := range c.PECaps {
		dst = strconv.AppendUint(dst, uint64(m), 16)
		dst = append(dst, ',')
	}
	return dst
}

// appendArchKey appends the Shared cache key: the architecture identity
// plus the II the graph is time-extended to.
func appendArchKey(dst []byte, c *arch.CGRA, ii int) []byte {
	dst = appendArchFingerprint(dst, c)
	dst = append(dst, "|ii"...)
	return strconv.AppendInt(dst, int64(ii), 10)
}
