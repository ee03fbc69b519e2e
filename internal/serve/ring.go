// Consistent-hash ring: how the router maps job ids onto shards. Each
// shard owns a fixed set of virtual nodes hashed onto a 64-bit circle; a
// job id hashes to a point and is owned by the first vnode at or after
// it. The assignment is a pure function of (id, shard count, vnode
// count) — no clocks, no randomness — so a control run and a chaos run
// route every job identically, which the multi-shard trace-equivalence
// suite depends on. Vnodes keep ownership balanced and make the
// walk-forward fallback (used when the home shard is retired) spread a
// retired shard's keys across the survivors instead of dumping them on
// one neighbor.
package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is the virtual-node count per shard.
const vnodes = 64

type ringPoint struct {
	hash  uint64
	shard int
}

type hashRing struct {
	points []ringPoint
	shards int
}

func newHashRing(shards int) *hashRing {
	r := &hashRing{shards: shards}
	r.points = make([]ringPoint, 0, shards*vnodes)
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("shard-%d/vnode-%d", s, v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (vanishingly rare with 64-bit FNV) break on shard index so
		// the ring order stays deterministic.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

func ringHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	// Raw FNV barely avalanches: keys differing only in trailing bytes
	// (sequential job ids like srv-00001, srv-00002) hash closer together
	// than the ring's average gap and pile onto one shard. Finish with a
	// 64-bit mixer so every input bit diffuses.
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Owner returns the shard owning the key: the first vnode clockwise from
// the key's hash whose shard ok accepts (nil ok accepts every shard).
// Returns -1 when no shard qualifies. The walk visits each distinct shard
// at most once, so a mostly-filtered ring still terminates promptly.
func (r *hashRing) Owner(key string, ok func(int) bool) int {
	if len(r.points) == 0 {
		return -1
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	tried := make(map[int]bool, r.shards)
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if tried[p.shard] {
			continue
		}
		tried[p.shard] = true
		if ok == nil || ok(p.shard) {
			return p.shard
		}
		if len(tried) == r.shards {
			break
		}
	}
	return -1
}
