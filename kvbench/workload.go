package main

import (
	"fmt"
	"math/rand"

	"lsasg"
)

// keys is the key space of every workload: the daemon runs with -n keys.
const keys = 256

// spec is one workload: how the daemon is started and how its op stream is
// drawn. Every phase has a fixed op count, so a run's work is a function of
// the seed and --seconds alone, never of how fast the box runs.
type spec struct {
	name string
	why  string
	// shards > 1 starts the daemon sharded (-shards).
	shards int
	// opsPerSecond converts --seconds into the run's timed op count, which
	// is split evenly over the run's sessions.
	opsPerSecond int
	// sessions is how many fresh daemons an untraced run drives, one after
	// another; pooling their timed phases averages over several topology
	// trajectories.
	sessions int
	// sampleEvery > 0 reads the daemon's topology size every sampleEvery
	// timed ops, so dummy_nodes and height are means over the timed phase
	// rather than one sample of a population that swings by a factor of
	// two within a run.
	sampleEvery int
	// timed draws the timed phase, m ops, continuing the load's model.
	timed func(g *gen, m int) []lsasg.Op
}

var specs = []spec{
	{
		name:         "kv-zipf-read",
		why:          "YCSB-B gets and updates over Zipf keys: every op runs the transformation, so core dominates",
		opsPerSecond: 100,
		sessions:     4,
		sampleEvery:  50,
		timed:        (*gen).zipfReads,
	},
	{
		name:         "crud-sharded-hotrange",
		why:          "CRUD with joins and leaves on 4 shards under a hot range: the only workload driving the shard layer",
		shards:       4,
		opsPerSecond: 450,
		sessions:     12,
		sampleEvery:  100,
		timed:        (*gen).crudHotRange,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// Mix parameters, named so the README and the tests can point at them.
const (
	zipfS       = 1.2  // Zipf exponent of kv-zipf-read
	updateShare = 0.05 // YCSB-B write share
	hotShare    = 0.9  // HotRange: share of draws inside [0, keys/8)
	hotKeys     = keys / 8
	crudMaxScan = 16 // crud-sharded-hotrange scan limits are uniform in [1, crudMaxScan]
	minLive     = keys / 2
	minValue    = 16 // values are 16..20 bytes
	maxValue    = 20
)

// gen draws one seeded op stream. It keeps its own membership model so
// inserts target absent keys and deletes present ones; the oracle checks
// the daemon independently.
type gen struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	rank   []int // Zipf rank → key, a seeded permutation
	live   []bool
	nLive  int
	serial int
}

// layout is the fixed key order behind the Zipf ranks and the load phase.
// Like YCSB's scrambled Zipfian it spreads the hot keys over the key space,
// and like YCSB's hash it does not depend on the run's seed: the seed draws
// the op sequence, not which keys are hot, so runs differ by sampling only.
var layout = rand.New(rand.NewSource(0x6b76)).Perm(keys)

func newGen(seed int64) *gen {
	rng := rand.New(rand.NewSource(seed))
	g := &gen{
		rng:   rng,
		zipf:  rand.NewZipf(rng, zipfS, 1, keys-1),
		rank:  layout,
		live:  make([]bool, keys),
		nLive: keys,
	}
	for i := range g.live {
		g.live[i] = true
	}
	return g
}

// stream draws the whole op stream of one session: the load phase (a value
// on every key) and the timed phase.
func (s spec) stream(seed int64, timed int) (setup, run []lsasg.Op) {
	g := newGen(seed)
	return g.load(), s.timed(g, timed)
}

// value draws a 16..20-byte payload that names its key and write serial.
func (g *gen) value(key int) []byte {
	g.serial++
	v := []byte(fmt.Sprintf("k%03d.w%07d.", key, g.serial))
	n := minValue + g.rng.Intn(maxValue-minValue+1)
	for len(v) < n {
		v = append(v, byte('a'+g.rng.Intn(26)))
	}
	return v
}

// load puts a seeded value on every key in layout order. Each put is the
// key's own access (origin = key), as a bulk loader's would be: it stores
// the value without adjusting the topology, so the timed phase starts from
// the daemon's initial graph.
func (g *gen) load() []lsasg.Op {
	ops := make([]lsasg.Op, keys)
	for i, k := range layout {
		ops[i] = lsasg.PutOp(k, k, g.value(k))
	}
	return ops
}

func (g *gen) zipfKey() int { return g.rank[g.zipf.Uint64()] }

// zipfPair draws a Zipf key and a distinct Zipf origin, so the access runs
// the transformation.
func (g *gen) zipfPair() (src, key int) {
	key = g.zipfKey()
	for src = g.zipfKey(); src == key; src = g.zipfKey() {
	}
	return src, key
}

func (g *gen) zipfReads(m int) []lsasg.Op {
	ops := make([]lsasg.Op, m)
	for i := range ops {
		src, key := g.zipfPair()
		if g.rng.Float64() < updateShare {
			ops[i] = lsasg.PutOp(src, key, g.value(key))
		} else {
			ops[i] = lsasg.GetOp(src, key)
		}
	}
	return ops
}

// hotKey draws from the HotRange base: hotShare of draws fall in the lowest
// eighth of the key space, the rest anywhere.
func (g *gen) hotKey() int {
	if g.rng.Float64() < hotShare {
		return g.rng.Intn(hotKeys)
	}
	return g.rng.Intn(keys)
}

// nearest returns the first key at or after k (wrapping) whose membership
// is want, skipping avoid; -1 when there is none.
func (g *gen) nearest(k int, want bool, avoid int) int {
	for i := 0; i < keys; i++ {
		j := (k + i) % keys
		if g.live[j] == want && j != avoid {
			return j
		}
	}
	return -1
}

// crudHotRange draws the CRUD mix: 45% get, 20% update, 10% insert (a put
// joining an absent key), 10% delete (a leave), 15% scan. Origins are live
// keys. An insert with no absent key, or a delete that would leave fewer
// than minLive keys, becomes an update.
func (g *gen) crudHotRange(m int) []lsasg.Op {
	ops := make([]lsasg.Op, m)
	for i := range ops {
		p := g.rng.Float64()
		key := g.hotKey()
		switch {
		case p < 0.45:
			ops[i] = lsasg.GetOp(g.nearest(g.hotKey(), true, key), key)
			continue
		case p < 0.65:
		case p < 0.75:
			if k := g.nearest(key, false, -1); k >= 0 {
				g.live[k] = true
				g.nLive++
				ops[i] = lsasg.PutOp(g.nearest(g.hotKey(), true, k), k, g.value(k))
				continue
			}
		case p < 0.85:
			if g.nLive > minLive {
				k := g.nearest(key, true, -1)
				src := g.nearest(g.hotKey(), true, k)
				g.live[k] = false
				g.nLive--
				ops[i] = lsasg.DeleteOp(src, k)
				continue
			}
		default:
			ops[i] = lsasg.ScanOp(g.nearest(g.hotKey(), true, -1), key, 1+g.rng.Intn(crudMaxScan))
			continue
		}
		k := g.nearest(key, true, -1)
		ops[i] = lsasg.PutOp(g.nearest(g.hotKey(), true, k), k, g.value(k))
	}
	return ops
}
