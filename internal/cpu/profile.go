package cpu

import (
	"sort"

	"portcc/internal/trace"
	"portcc/internal/uarch"
)

// Profile answers a trace's Result on any valid configuration of the
// base and §7 spaces from one batched replay. Every count a Result is
// assembled from belongs to one geometry or group (facts 2 and 3): an
// IL1, a DL1 or a BTB geometry, a fetch stream (BTB geometry, IL1 block),
// a width-2 pairing group (fetch stream, load-use latency), or a
// dependency-stall fold at one load-use latency and width; frequency only
// scales penalties and latencies, which assemble reads from the
// configuration. Every batched replay records its counts here, per
// geometry, and Result looks them up and assembles in closed form,
// bit-identical to Simulate. NewProfile replays the covering sample,
// which holds each geometry, so its profile answers every valid
// configuration; a geometry no replay held reads zero, which is why a
// batch's own profile never leaves SimulateBatch. Read-only once built,
// so safe for concurrent use.
type Profile struct {
	// tot holds the trace's totals; Result sets every per-geometry field
	// of its copy.
	tot   counts
	il1   []uint64    // IL1 misses per cache geometry
	dl1   [][2]uint64 // DL1 (load, store) misses per cache geometry
	btb   []uint64    // mispredictions per BTB geometry
	fetch [][2]uint64 // IL1 (accesses, redirects) per fetch stream
	pairs []uint64    // paired events per fetch stream x load-use latency
	dep   [2][]uint64 // dependency stalls per load-use latency, width 1 and 2
}

// cover is the sample NewProfile replays, built from the uarch lists;
// maxLoadUse is the deepest load-use latency of the space.
var cover, maxLoadUse = coverSample()

// coverSample lists every IL1 geometry beside the same DL1 geometry at
// width 1, one width-1 configuration per load-use latency (their
// histogram folds), and at width 2 every BTB geometry x IL1 block x
// load-use latency: every fetch stream and pairing group.
func coverSample() ([]uarch.Config, int) {
	atLat := map[int]uarch.Config{} // a DL1 geometry and frequency per latency
	var cfgs []uarch.Config
	for _, size := range uarch.CacheSizes {
		for _, assoc := range uarch.CacheAssocs {
			for _, block := range uarch.CacheBlocks {
				c := uarch.XScale()
				c.IL1Size, c.IL1Assoc, c.IL1Block = size, assoc, block
				c.DL1Size, c.DL1Assoc, c.DL1Block = size, assoc, block
				cfgs = append(cfgs, c)
				for _, f := range uarch.Frequencies {
					l := uarch.XScale()
					l.DL1Size, l.DL1Assoc, l.DL1Block, l.FreqMHz = size, assoc, block, f
					if lat := l.DL1Latency(); atLat[lat] == (uarch.Config{}) {
						atLat[lat] = l
					}
				}
			}
		}
	}
	var lats []int
	for lat := range atLat {
		lats = append(lats, lat)
	}
	sort.Ints(lats)
	for _, lat := range lats {
		cfgs = append(cfgs, atLat[lat])
	}
	for _, entries := range uarch.BTBEntries {
		for _, assoc := range uarch.BTBAssocs {
			for _, block := range uarch.CacheBlocks {
				for _, lat := range lats {
					c := atLat[lat]
					c.BTBSize, c.BTBAssoc, c.IL1Block, c.Width = entries, assoc, block, 2
					cfgs = append(cfgs, c)
				}
			}
		}
	}
	return cfgs, lats[len(lats)-1]
}

// listIndex is v's position in a uarch value list (-1: absent).
func listIndex(v int, list []int) int {
	for i, x := range list {
		if x == v {
			return i
		}
	}
	return -1
}

// cacheGeom and btbGeom number the cache and BTB geometries of the space;
// fetchStream numbers (BTB geometry, IL1 block) pairs.
func cacheGeom(size, assoc, block int) int {
	return (listIndex(size, uarch.CacheSizes)*len(uarch.CacheAssocs)+
		listIndex(assoc, uarch.CacheAssocs))*len(uarch.CacheBlocks) + listIndex(block, uarch.CacheBlocks)
}

func btbGeom(entries, assoc int) int {
	return listIndex(entries, uarch.BTBEntries)*len(uarch.BTBAssocs) + listIndex(assoc, uarch.BTBAssocs)
}

func fetchStream(cfg *uarch.Config) int {
	return btbGeom(cfg.BTBSize, cfg.BTBAssoc)*len(uarch.CacheBlocks) + listIndex(cfg.IL1Block, uarch.CacheBlocks)
}

// archCosts is what assemble reads of a configuration besides its
// counts: its Cacti latencies, miss penalties and per-access energies.
type archCosts struct {
	il1Lat, dl1Lat                  int
	icPenalty, dcPenalty            uint64
	il1Energy, dl1Energy, btbEnergy float64
}

// costsOf evaluates the uarch formulas on cfg: what the cost tables
// below are built from, and what the tests hold them to.
func costsOf(cfg *uarch.Config) archCosts {
	return archCosts{
		il1Lat:    cfg.IL1Latency(),
		dl1Lat:    cfg.DL1Latency(),
		icPenalty: uint64(cfg.MissPenalty(cfg.IL1Block)),
		dcPenalty: uint64(cfg.MissPenalty(cfg.DL1Block)),
		il1Energy: cfg.IL1Energy(),
		dl1Energy: cfg.DL1Energy(),
		btbEnergy: cfg.BTBEnergy(),
	}
}

// cacheCost is one cache geometry at one frequency, in the IL1 and the
// DL1 role alike; btbEnergy is one BTB geometry's. Both tables are
// costsOf over the space, so a Result reads index arithmetic where the
// formulas take logarithms and powers.
type cacheCost struct {
	il1Lat, dl1Lat int
	penalty        uint64
	energy         float64
}

var cacheCosts, btbEnergy = costTables()

func costTables() (caches []cacheCost, btbs []float64) {
	for _, size := range uarch.CacheSizes {
		for _, assoc := range uarch.CacheAssocs {
			for _, block := range uarch.CacheBlocks {
				for _, f := range uarch.Frequencies {
					c := uarch.XScale()
					c.IL1Size, c.IL1Assoc, c.IL1Block = size, assoc, block
					c.DL1Size, c.DL1Assoc, c.DL1Block = size, assoc, block
					c.FreqMHz = f
					k := costsOf(&c)
					caches = append(caches, cacheCost{k.il1Lat, k.dl1Lat, k.icPenalty, k.il1Energy})
				}
			}
		}
	}
	for _, entries := range uarch.BTBEntries {
		for _, assoc := range uarch.BTBAssocs {
			c := uarch.XScale()
			c.BTBSize, c.BTBAssoc = entries, assoc
			btbs = append(btbs, costsOf(&c).btbEnergy)
		}
	}
	return caches, btbs
}

// tableCosts is costsOf of a valid configuration with IL1 geometry il1,
// DL1 geometry dl1 and BTB geometry btb, read from the tables.
func tableCosts(cfg *uarch.Config, il1, dl1, btb int) archCosts {
	f := listIndex(cfg.FreqMHz, uarch.Frequencies)
	i, d := &cacheCosts[il1*len(uarch.Frequencies)+f], &cacheCosts[dl1*len(uarch.Frequencies)+f]
	return archCosts{
		il1Lat:    i.il1Lat,
		dl1Lat:    d.dl1Lat,
		icPenalty: i.penalty,
		dcPenalty: d.penalty,
		il1Energy: i.energy,
		dl1Energy: d.energy,
		btbEnergy: btbEnergy[btb],
	}
}

// newProfile returns a profile whose every count reads zero, for replay
// to fill.
func newProfile() *Profile {
	caches := len(uarch.CacheSizes) * len(uarch.CacheAssocs) * len(uarch.CacheBlocks)
	streams := len(uarch.BTBEntries) * len(uarch.BTBAssocs) * len(uarch.CacheBlocks)
	return &Profile{
		il1:   make([]uint64, caches),
		dl1:   make([][2]uint64, caches),
		btb:   make([]uint64, len(uarch.BTBEntries)*len(uarch.BTBAssocs)),
		fetch: make([][2]uint64, streams),
		pairs: make([]uint64, streams*(maxLoadUse+1)),
		dep:   [2][]uint64{make([]uint64, maxLoadUse+1), make([]uint64, maxLoadUse+1)},
	}
}

// NewProfile replays tr once over the covering sample, fanning the
// per-geometry sweeps over workers (SimulateBatchWith's contract).
func NewProfile(tr *trace.Trace, workers int) *Profile {
	p := newProfile()
	replay(tr, cover, workers, nil, p)
	return p
}

// Sims is the number of configurations NewProfile replays.
func (p *Profile) Sims() int { return len(cover) }

// Result assembles the trace's Result on cfg, bit-identical to
// Simulate(tr, cfg); a configuration uarch.Validate refuses is refused
// with its error.
func (p *Profile) Result(cfg uarch.Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	il1 := cacheGeom(cfg.IL1Size, cfg.IL1Assoc, cfg.IL1Block)
	dl1 := cacheGeom(cfg.DL1Size, cfg.DL1Assoc, cfg.DL1Block)
	btb := btbGeom(cfg.BTBSize, cfg.BTBAssoc)
	k := tableCosts(&cfg, il1, dl1, btb)
	s, lat := fetchStream(&cfg), k.dl1Lat
	c := p.tot
	c.icAccesses, c.redirects = p.fetch[s][0], p.fetch[s][1]
	c.icMisses = p.il1[il1]
	c.loadMisses, c.storeMisses = p.dl1[dl1][0], p.dl1[dl1][1]
	c.mispredicts = p.btb[btb]
	c.pairs, c.depStalls = 0, p.dep[cfg.Width-1][lat]
	if cfg.Width == 2 {
		c.pairs = p.pairs[s*(maxLoadUse+1)+lat]
	}
	return assemble(cfg, &k, &c), nil
}
