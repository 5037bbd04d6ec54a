// Differential fuzz targets for what this package keeps bit-identical by
// construction: the shared LRU stack (permutation-word and ring
// encodings) against a naive per-member set-associative reference model,
// the bit-parallel pairing count against the run-length scan, and
// SimulateBatch against per-configuration Simulate, and a trace's
// Profile against SimulateBatch. CI runs each with a
// short -fuzztime as a smoke; seed corpora live under testdata/fuzz.
package cpu

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"portcc/internal/isa"
	"portcc/internal/trace"
)

// refCache is the naive reference: one independent true-LRU
// set-associative cache per member, tags kept MRU-first in a plain slice
// with O(assoc) probe and rotate. Deliberately the most literal possible
// encoding of the textbook policy.
type refCache struct {
	assoc                           int
	blockLg                         uint32
	setBits                         uint32
	sets                            [][]uint32
	misses, loadMisses, storeMisses uint64
}

func newRefCache(setBits, blockLg uint32, assoc int) *refCache {
	return &refCache{
		assoc: assoc, blockLg: blockLg, setBits: setBits,
		sets: make([][]uint32, 1<<setBits),
	}
}

func (c *refCache) access(addr uint32, isStore bool) {
	line := addr >> c.blockLg
	set := line & (uint32(len(c.sets)) - 1)
	tag := line >> c.setBits
	s := c.sets[set]
	for i, t := range s {
		if t == tag {
			copy(s[1:i+1], s[:i])
			s[0] = tag
			return
		}
	}
	c.misses++
	if isStore {
		c.storeMisses++
	} else {
		c.loadMisses++
	}
	if len(s) < c.assoc {
		s = append(s, 0)
	}
	copy(s[1:], s)
	s[0] = tag
	c.sets[set] = s
}

// fuzzAssocs decodes a member-associativity subset from a mask byte;
// the menu spans both stack representations (perm words up to 16, ring
// beyond) up to the sampled space's deepest cache, 64 ways.
var fuzzAssocMenu = []int{1, 2, 4, 8, 16, 32, 64}

func fuzzAssocs(mask byte) []int {
	var out []int
	for i, a := range fuzzAssocMenu {
		if mask>>i&1 != 0 {
			out = append(out, a)
		}
	}
	if out == nil {
		out = []int{4}
	}
	return out
}

// FuzzLRUStackVsReference drives a random access sequence through one
// chain of shared lruStacks, one per set count, each in whichever
// representation its depth selects and again with the ring forced, and
// through one naive reference cache per member. It asserts identical
// per-member miss, load-miss and store-miss counts, and every set's MRU
// order, invalid tail included, equal to that of the stack's deepest
// member. Input layout: byte 0 is a mask of set counts (bit b: 2^b sets;
// no bit: one set), byte 1 the member associativities, then 3-byte
// records of (addr16, flags).
func FuzzLRUStackVsReference(f *testing.F) {
	f.Add([]byte{2, 0b0110, 0, 0, 0, 1, 0, 1, 4, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 0b0001, 9, 9, 0, 9, 9, 1})
	f.Add([]byte{4, 0b111111, 1, 2, 0, 3, 4, 1, 1, 2, 0, 250, 250, 1})
	// A partly filled 64-deep ring hit past its midpoint (A B C D B in
	// one set), in a chain with a set-count gap (2 and 64 sets).
	f.Add([]byte{0b1000010, 0b1000100, 1, 0, 0, 3, 0, 1, 5, 0, 0, 7, 0, 1, 3, 0, 0, 2, 0, 0})
	rng := rand.New(rand.NewSource(7))
	long := make([]byte, 2, 2+3*300)
	long[0], long[1] = 0b1011, 0b1101101
	for i := 0; i < 300; i++ {
		long = append(long, byte(rng.Intn(64)), byte(rng.Intn(4)), byte(rng.Intn(256)))
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		setMask := data[0]
		if setMask == 0 {
			setMask = 1
		}
		const blockLg = 2
		assocs := fuzzAssocs(data[1])
		var memList []uint64
		for j := 2; j+3 <= len(data) && len(memList) < blockEvents; j += 3 {
			mp := uint64(uint32(data[j])|uint32(data[j+1])<<8)<<2 | uint64(len(memList))<<32
			if data[j+2]&1 != 0 {
				mp |= 1 << 63
			}
			memList = append(memList, mp)
		}

		for _, ring := range []bool{false, true} {
			sc := getSimScratch()
			// Finest first: the chain must put them in order itself.
			var stacks []*lruStack
			for b := 7; b >= 0; b-- {
				if setMask>>b&1 != 0 {
					stacks = append(stacks, newStackIn(sc, uint32(b), blockLg, assocs, ring))
				}
			}
			chains := chainStacks(stacks, nil, nil, sc)
			if len(chains) != 1 || len(chains[0].stacks) != len(stacks) {
				t.Fatalf("%d stacks of one block size made %d chains", len(stacks), len(chains))
			}
			chains[0].sweep(memList, nil, 0)
			for _, s := range stacks {
				for _, m := range s.members {
					rc := newRefCache(s.setBits, blockLg, m.assoc)
					for _, mp := range memList {
						rc.access(uint32(mp), mp>>63 != 0)
					}
					if m.misses != rc.misses || m.loadMisses != rc.loadMisses || m.storeMisses != rc.storeMisses {
						t.Fatalf("ring=%v assoc=%d sets=%d: stack (miss=%d load=%d store=%d) != reference (miss=%d load=%d store=%d)",
							ring, m.assoc, 1<<s.setBits, m.misses, m.loadMisses, m.storeMisses, rc.misses, rc.loadMisses, rc.storeMisses)
					}
					if m.assoc == s.depth {
						for set, tags := range rc.sets {
							want := make([]uint32, s.depth)
							for i, tg := range tags {
								want[i] = tg + 1
							}
							if got := s.mruOrder(uint32(set)); !slices.Equal(got, want) {
								t.Fatalf("ring=%v sets=%d set %d: MRU order %v, reference %v", ring, 1<<s.setBits, set, got, want)
							}
						}
					}
				}
			}
			putSimScratch(sc)
		}
	})
}

// FuzzPairWord drives the bit-parallel pairing count against the
// run-length reference: byte 0 chooses the length of the run entering
// the first word (0-3: none, odd, even, odd), the rest are little-endian
// eligibility words, a short tail zero-padded.
func FuzzPairWord(f *testing.F) {
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{2, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0xd5, 0xaa})
	f.Add([]byte{3, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x80, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		open := uint64(data[0] % 4)
		var ws []uint64
		for i := 1; i < len(data); i += 8 {
			var b [8]byte
			copy(b[:], data[i:])
			ws = append(ws, binary.LittleEndian.Uint64(b[:]))
		}
		if err := pairWordsMatch(ws, open); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzTrace decodes an adversarial event stream from fuzz bytes, in the
// spirit of randomTrace but byte-driven: arbitrary operation classes,
// flags, addresses and dependency distances, including values the real
// generator never emits. A jump record's high nibble scales its target,
// 0x1000 + 4*b4 << scale, so code ranges run from a few bytes to 32 MiB:
// either side of every IL1 and BTB geometry's no-eviction bound (fact
// 6). The trace declares its exact code range and branch sites.
func fuzzTrace(data []byte) *trace.Trace {
	tr := &trace.Trace{}
	pc := uint32(0x1000)
	lo, hi := ^uint32(0), uint32(0)
	var sites []uint32
	for i := 0; i+6 <= len(data) && i/6 < 20000; i += 6 {
		b := data[i : i+6]
		op := isa.Op(int(b[0]) % isa.NumOps)
		ev := trace.Event{
			PC:       pc,
			Addr:     uint32(b[1]) | uint32(b[2])<<8,
			Op:       uint8(op),
			DistLoad: trace.NoDist,
			DistFU:   trace.NoDist,
		}
		switch b[3] % 4 {
		case 0:
			pc += 4
		case 1:
			pc = 0x1000 + uint32(b[4])*4<<(b[3]>>4)
		case 2:
			ev.DistLoad = b[4]
		case 3:
			ev.DistFU = b[4]
			ev.FULat = b[5]
		}
		ev.Flags = b[5] & (trace.FlagTaken | trace.FlagDepPrev | trace.FlagCond)
		lo, hi = min(lo, ev.PC), max(hi, ev.PC+4)
		if ev.Flags&trace.FlagCond != 0 {
			sites = append(sites, ev.PC)
		}
		tr.Events = append(tr.Events, ev)
		tr.OpCount[op]++
		if op.IsMem() {
			tr.MemOps++
		}
		if ev.Flags&trace.FlagCond != 0 {
			tr.Branches++
		}
	}
	tr.RegReads = uint64(len(tr.Events))
	tr.RegWrites = uint64(len(tr.Events) / 2)
	tr.Runs = 1
	if len(tr.Events) > 0 {
		slices.Sort(sites)
		tr.Code = trace.Code{Lo: lo, Hi: hi, CondSites: slices.Compact(sites)}
	}
	return tr
}

// fuzzBoundarySeed spells a trace across the XScale point's no-eviction
// bounds, which every fuzzed sample contains: a branch at 0x1000, a jump
// to 0x8f80, and a sequential run that ends - with a second branch -
// either on the last instruction of a 32 KiB code range (1024 32-byte
// lines over its 32-set IL1, and the branches in distinct sets of its
// 512x1 BTB) or one instruction past it (a 1025th line, and the two
// branches 32 KiB apart in one BTB set).
func fuzzBoundarySeed(past bool) []byte {
	rec := func(mode, b4, flags byte) []byte { return []byte{byte(isa.OpALU), 0, 0, mode, b4, flags} }
	seed := []byte{0}
	seed = append(seed, rec(0x51, 255, trace.FlagCond|trace.FlagTaken)...) // 0x1000, then to 0x1000 + 255*4<<5
	n := 31
	if past {
		n = 32
	}
	for k := 0; k < n; k++ {
		seed = append(seed, rec(0, 0, 0)...)
	}
	return append(seed, rec(0, 0, trace.FlagCond)...)
}

// addTraceSeeds seeds a fuzz target whose input is an architecture
// sample seed byte followed by fuzzTrace records.
func addTraceSeeds(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	rng := rand.New(rand.NewSource(3))
	seq := make([]byte, 1, 1+6*400)
	for i := 0; i < 6*400; i++ {
		seq = append(seq, byte(rng.Intn(256)))
	}
	f.Add(seq)
	f.Add([]byte{7, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0})
	// Either side of the XScale point's IL1 and BTB bounds, and a 25 MiB
	// code range that overflows every geometry of every sample.
	f.Add(fuzzBoundarySeed(false))
	f.Add(fuzzBoundarySeed(true))
	wide := []byte{5}
	for k := 0; k < 64; k++ {
		wide = append(wide, byte(isa.OpALU), 0, 0, byte(k%16)<<4|1, byte(k*37), trace.FlagCond|byte(k%2))
	}
	f.Add(wide)
}

// FuzzSimulateBatchVsSimulate fuzzes the end-to-end equivalence: an
// arbitrary event sequence replayed through the batched one-pass engine
// must produce, for every architecture of a base+extended sample,
// exactly the Result of per-configuration Simulate - memo-less, filling a
// data-stream memo, and answered from it. The first byte seeds the
// architecture sample so geometry sharing patterns vary too.
func FuzzSimulateBatchVsSimulate(f *testing.F) {
	addTraceSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		rng := rand.New(rand.NewSource(int64(data[0])))
		archs := sampleArchs(rng, 4, true)
		tr := fuzzTrace(data[1:])
		batch := SimulateBatch(tr, archs)
		for i, cfg := range archs {
			if want := Simulate(tr, cfg); batch[i] != want {
				t.Fatalf("config %d (%s):\n batch %+v\n  want %+v", i, cfg.String(), batch[i], want)
			}
		}
		// Twice through one shared memo: the pass that fills it and the
		// pass it answers are both held to the same results.
		var memo DataMemo
		for pass := 0; pass < 2; pass++ {
			memod, reused := SimulateBatchMemo(tr, archs, 1, &memo)
			if reused != (pass == 1) {
				t.Fatalf("memo pass %d: reused = %v", pass, reused)
			}
			for i := range archs {
				if memod[i] != batch[i] {
					t.Fatalf("memo pass %d config %d (%s):\n  got %+v\n want %+v", pass, i, archs[i].String(), memod[i], batch[i])
				}
			}
		}
		// Any worker count must agree with the sequential pass.
		for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
			par := SimulateBatchWith(tr, archs, workers)
			for i := range archs {
				if par[i] != batch[i] {
					t.Fatalf("workers=%d config %d (%s): parallel differs from sequential:\n  got %+v\n want %+v",
						workers, i, archs[i].String(), par[i], batch[i])
				}
			}
		}
	})
}

// FuzzProfileVsBatch holds the trace's Profile, built from its one
// 525-configuration covering replay, to SimulateBatch on the same
// inputs as FuzzSimulateBatchVsSimulate: a target of its own, so the
// covering replay's cost leaves the batch-vs-Simulate rate alone.
func FuzzProfileVsBatch(f *testing.F) {
	addTraceSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		rng := rand.New(rand.NewSource(int64(data[0])))
		archs := sampleArchs(rng, 4, true)
		tr := fuzzTrace(data[1:])
		batch := SimulateBatch(tr, archs)
		prof := NewProfile(tr, 1)
		for i, cfg := range archs {
			if got, err := prof.Result(cfg); err != nil || got != batch[i] {
				t.Fatalf("profile config %d (%s): err %v\n  got %+v\n want %+v", i, cfg.String(), err, got, batch[i])
			}
		}
	})
}
