package cpu

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"portcc/internal/core"
	"portcc/internal/isa"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/trace"
	"portcc/internal/uarch"
)

// sampleArchs draws n distinct configurations, always including the XScale
// reference point and, when extended, its dual-issue variant.
func sampleArchs(rng *rand.Rand, n int, extended bool) []uarch.Config {
	space := uarch.Space{Extended: extended}
	archs := space.SampleN(rng, n)
	archs = append(archs, uarch.XScale())
	if extended {
		w2 := uarch.XScale()
		w2.Width = 2
		w2.FreqMHz = 600
		archs = append(archs, w2)
	}
	return archs
}

func assertBatchMatches(t *testing.T, tr *trace.Trace, archs []uarch.Config) {
	t.Helper()
	batch := SimulateBatch(tr, archs)
	if len(batch) != len(archs) {
		t.Fatalf("SimulateBatch returned %d results for %d configs", len(batch), len(archs))
	}
	for i, cfg := range archs {
		want := Simulate(tr, cfg)
		if batch[i] != want {
			t.Errorf("config %d (%v):\n batch %+v\n  want %+v", i, cfg, batch[i], want)
		}
	}
}

// TestSimulateBatchMatchesSimulate is the bit-identity property on real
// program traces: every counter, every stall bucket, every energy value of
// SimulateBatch must equal sequential Simulate per architecture, over both
// the base (Table 2) and extended (§7, dual-issue and frequency) spaces.
func TestSimulateBatchMatchesSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	optRng := rand.New(rand.NewSource(7))
	for _, name := range []string{"gs", "crc", "patricia"} {
		m := prog.MustBuild(name)
		cfgs := []opt.Config{opt.O3(), opt.Random(optRng)}
		for ci := range cfgs {
			p, err := core.Compile(m, &cfgs[ci])
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.Generate(p, trace.Config{Runs: 1, MaxInsns: 30000, Seed: 3})
			assertBatchMatches(t, tr, sampleArchs(rng, 16, false))
			assertBatchMatches(t, tr, sampleArchs(rng, 16, true))
		}
	}
}

// randomTrace synthesises an adversarial event stream: arbitrary operation
// classes, flags, addresses and dependency distances, including values the
// trace generator never emits (zero distances, huge FU latencies), so the
// equivalence holds on the full event domain, not just realistic traces.
func randomTrace(rng *rand.Rand, n int) *trace.Trace {
	tr := &trace.Trace{Events: make([]trace.Event, n)}
	pc := uint32(0x1000)
	for i := range tr.Events {
		ev := &tr.Events[i]
		op := isa.Op(rng.Intn(isa.NumOps))
		ev.Op = uint8(op)
		ev.PC = pc
		if rng.Intn(8) == 0 {
			pc = 0x1000 + uint32(rng.Intn(1<<14))*4
		} else {
			pc += 4
		}
		ev.Addr = uint32(rng.Intn(1 << 20))
		ev.DistLoad = trace.NoDist
		ev.DistFU = trace.NoDist
		if rng.Intn(3) == 0 {
			ev.DistLoad = uint8(rng.Intn(255))
		}
		if rng.Intn(3) == 0 {
			ev.DistFU = uint8(rng.Intn(255))
			ev.FULat = uint8(rng.Intn(256))
		}
		var flags uint8
		if rng.Intn(4) == 0 {
			flags |= trace.FlagCond
			if rng.Intn(2) == 0 {
				flags |= trace.FlagTaken
			}
		}
		if rng.Intn(5) == 0 {
			flags |= trace.FlagDepPrev
		}
		ev.Flags = flags
		tr.OpCount[op]++
		if op.IsMem() {
			tr.MemOps++
		}
		if flags&trace.FlagCond != 0 {
			tr.Branches++
		}
	}
	tr.RegReads = uint64(rng.Intn(1000))
	tr.RegWrites = uint64(rng.Intn(1000))
	tr.Runs = 1
	return tr
}

// TestSimulateBatchRandomTraces fuzzes the equivalence over synthetic
// traces and architecture samples of varying size.
func TestSimulateBatchRandomTraces(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 2000+rng.Intn(3000))
		n := 1 + rng.Intn(24)
		assertBatchMatches(t, tr, sampleArchs(rng, n, seed%2 == 1))
	}
}

// pairsReference is the run-length scan pairWord replaced: it decomposes
// each eligibility word into maximal runs, carries the length of the run
// still open across words, closes each run with ceil(L/2) pairs and
// flushes the run open after the last word. open is the length of the
// run entering ws; the count includes that run's pairs, and openOut is
// the open length before the flush.
func pairsReference(ws []uint64, open uint64) (pairs, openOut uint64) {
	for _, v := range ws {
		switch v {
		case 0:
			if open != 0 {
				pairs += (open + 1) / 2
				open = 0
			}
			continue
		case ^uint64(0):
			open += 64
			continue
		}
		for pos := 0; pos < 64; {
			rest := v >> uint(pos)
			if rest == 0 {
				break
			}
			if gap := bits.TrailingZeros64(rest); gap > 0 {
				if open != 0 {
					pairs += (open + 1) / 2
					open = 0
				}
				pos += gap
			}
			run := bits.TrailingZeros64(^(v >> uint(pos)))
			open += uint64(run)
			pos += run
			if pos < 64 {
				// The run ends inside the word: the next bit is a gap.
				pairs += (open + 1) / 2
				open = 0
			}
		}
	}
	return pairs + (open+1)/2, open
}

// pairWordsMatch chains pairWord over ws from the state a run of length
// open leaves (its last event paired when open is odd) and compares the
// total and the carried state with pairsReference, whose count also
// holds the entering run's own pairs.
func pairWordsMatch(ws []uint64, open uint64) error {
	paired := open%2 == 1
	got := 0
	for _, v := range ws {
		var n int
		n, paired = pairWord(v, paired)
		got += n
	}
	want, openOut := pairsReference(ws, open)
	want -= (open + 1) / 2
	if uint64(got) != want || paired != (openOut%2 == 1) {
		return fmt.Errorf("words %#x entered by a run of %d: pairWord %d pairs, last paired %v; reference %d pairs, open run %d",
			ws, open, got, paired, want, openOut)
	}
	return nil
}

// TestPairWordMatchesReference holds the bit-parallel pairing count to
// the run-length scan over every single run of a word, the degenerate
// and alternating words, runs spanning two to four words and seeded
// random word sequences, each entered with no run, an odd-length run and
// an even-length run.
func TestPairWordMatchesReference(t *testing.T) {
	check := func(ws ...uint64) {
		t.Helper()
		for _, open := range []uint64{0, 1, 2, 3} {
			if err := pairWordsMatch(ws, open); err != nil {
				t.Fatal(err)
			}
		}
	}
	for s := 0; s < 64; s++ {
		for l := 1; s+l <= 64; l++ {
			run := ^uint64(0) >> (64 - l) << s
			check(run)
			check(run, 0)
			check(run, ^uint64(0))
		}
	}
	for _, v := range []uint64{0, ^uint64(0), 0x5555555555555555, 0xAAAAAAAAAAAAAAAA} {
		check(v)
		check(v, v)
	}
	// One run from bit s of the first word to bit e of the n words.
	for n := 2; n <= 4; n++ {
		for s := 0; s < 64; s++ {
			for e := 64*(n-1) + 1; e <= 64*n; e++ {
				ws := make([]uint64, n)
				for b := s; b < e; b++ {
					ws[b/64] |= 1 << (b % 64)
				}
				check(ws...)
			}
		}
	}
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 10000; i++ {
		ws := make([]uint64, 1+rng.Intn(6))
		for w := range ws {
			// Vary the density so long runs and all-ones words occur.
			switch v := rng.Uint64(); rng.Intn(5) {
			case 0:
				ws[w] = v
			case 1:
				ws[w] = v & rng.Uint64()
			case 2:
				ws[w] = v | rng.Uint64() | rng.Uint64()
			case 3:
				ws[w] = ^(v & rng.Uint64() & rng.Uint64() & rng.Uint64())
			default:
				ws[w] = ^uint64(0)
			}
		}
		check(ws...)
	}
}

// pairingEdgeTrace builds a deterministic trace that forces every
// dual-issue pairing edge case through the closed forms: maximal
// pairable runs of both parities, dep-chain breaks (FlagDepPrev),
// memory-after-memory sequences, pairing directly after taken and
// mispredicted control flow, load-use and functional-unit stalls with
// distances straddling the latency thresholds, eligible runs placed on
// exact word boundaries, a pairable run that deterministically crosses
// the 32768-event block boundary, and a trace length that ends mid-word
// with the final run still open.
func pairingEdgeTrace(n int) *trace.Trace {
	tr := &trace.Trace{Runs: 1}
	tr.Events = make([]trace.Event, 0, n)
	pc := uint32(0x1000)
	emit := func(ev trace.Event) {
		if len(tr.Events) >= n {
			return
		}
		ev.PC = pc
		pc += 4
		op := isa.Op(ev.Op)
		tr.Events = append(tr.Events, ev)
		tr.OpCount[op]++
		if op.IsMem() {
			tr.MemOps++
		}
		if ev.Flags&trace.FlagCond != 0 {
			tr.Branches++
		}
	}
	alu := trace.Event{Op: uint8(isa.OpALU), DistLoad: trace.NoDist, DistFU: trace.NoDist}
	phase := 0
	// emitPhase appends at most 512 events of one edge-case pattern.
	emitPhase := func() {
		switch phase % 9 {
		case 0: // maximal pairable runs, length parity varying
			for i := 0; i < 63+phase%3; i++ {
				emit(alu)
			}
		case 1: // dep-chain breaks
			for i := 0; i < 24; i++ {
				ev := alu
				if i%3 == 1 {
					ev.Flags = trace.FlagDepPrev
				}
				emit(ev)
			}
		case 2: // memory-after-memory in every load/store order
			for i := 0; i < 16; i++ {
				ev := trace.Event{DistLoad: trace.NoDist, DistFU: trace.NoDist, Addr: uint32(0x8000 + i*64)}
				if i%4 < 2 {
					ev.Op = uint8(isa.OpLoad)
				} else {
					ev.Op = uint8(isa.OpStore)
				}
				emit(ev)
				if i%4 == 3 {
					emit(alu)
				}
			}
		case 3: // pairable ops directly after a taken redirect
			emit(trace.Event{Op: uint8(isa.OpJump), DistLoad: trace.NoDist, DistFU: trace.NoDist})
			for i := 0; i < 5; i++ {
				emit(alu)
			}
		case 4: // conditional branches: mispredict redirects differ per BTB
			for i := 0; i < 12; i++ {
				ev := trace.Event{Op: uint8(isa.OpBranch), DistLoad: trace.NoDist, DistFU: trace.NoDist, Flags: trace.FlagCond}
				if i%3 != 0 {
					ev.Flags |= trace.FlagTaken
				}
				emit(ev)
				emit(alu)
				emit(alu)
			}
		case 5: // load-use stalls around each latency threshold
			for d := 0; d < 12; d++ {
				emit(trace.Event{Op: uint8(isa.OpLoad), DistLoad: trace.NoDist, DistFU: trace.NoDist, Addr: uint32(0x400 * d)})
				use := alu
				use.DistLoad = uint8(d)
				emit(use)
				emit(alu)
			}
		case 6: // functional-unit stalls (break eligibility width-independently)
			for i := 0; i < 10; i++ {
				emit(trace.Event{Op: uint8(isa.OpMul), DistLoad: trace.NoDist, DistFU: trace.NoDist})
				use := alu
				use.DistFU = uint8(i % 4)
				use.FULat = uint8(2 + i%5)
				emit(use)
			}
		case 7: // a lone unpairable op re-seeds the run parity
			ev := alu
			ev.Flags = trace.FlagDepPrev
			emit(ev)
		case 8: // eligibility words laid on exact word boundaries
			emit(alu)
			for len(tr.Events)%64 != 0 {
				emit(alu)
			}
			// Every event repeats the previous PC, so none fetches and
			// each is eligible unless it carries FlagDepPrev: a run from
			// bit 1 ending exactly at bit 63; a gap at bit 63, then a run
			// from exactly bit 0; all-ones words entered by an even-length
			// (22) and an odd-length (61) run, each run going on into the
			// next word, where only the parity carried out of bit 63 says
			// which of its events pair.
			for _, w := range []uint64{
				^uint64(1), ^uint64(1) >> 1 &^ 1, ^uint64(1 << 41),
				^uint64(0), ^uint64(1 << 2), ^uint64(0), 1,
			} {
				for b := 0; b < 64; b++ {
					ev := alu
					if w>>b&1 == 0 {
						ev.Flags = trace.FlagDepPrev
					}
					pc -= 4
					emit(ev)
				}
			}
		}
		phase++
	}
	for len(tr.Events) < blockEvents-600 && len(tr.Events) < n {
		emitPhase()
	}
	// Straddle the block boundary with one maximal pairable run.
	for len(tr.Events) < blockEvents+64 && len(tr.Events) < n {
		emit(alu)
	}
	for len(tr.Events) < n-600 {
		emitPhase()
	}
	for len(tr.Events) < n {
		emit(alu) // trailing run left open at end of trace
	}
	tr.RegReads = uint64(n)
	tr.RegWrites = uint64(n / 2)
	return tr
}

// TestSimulateBatchDualIssue drives the width-1 and width-2 closed forms
// against Simulate, the per-event dual-issue reference, over the crafted
// pairing-edge trace and adversarial random traces, at one, two and
// GOMAXPROCS workers. A width-3 configuration - outside the sampled
// space, answered by Simulate itself - rides along in the same sample.
func TestSimulateBatchDualIssue(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(tr *trace.Trace, archs []uarch.Config) {
		t.Helper()
		want := make([]Result, len(archs))
		for i, cfg := range archs {
			want[i] = Simulate(tr, cfg)
		}
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			got := SimulateBatchWith(tr, archs, workers)
			for i := range archs {
				if got[i] != want[i] {
					t.Fatalf("workers=%d config %d (%s):\n batch %+v\n  want %+v",
						workers, i, archs[i].String(), got[i], want[i])
				}
			}
		}
	}
	archs := sampleArchs(rng, 12, true)
	w3 := uarch.XScale()
	w3.Width = 3
	archs = append(archs, w3)
	check(pairingEdgeTrace(2*blockEvents+37), archs)
	for seed := int64(0); seed < 4; seed++ {
		frng := rand.New(rand.NewSource(seed))
		check(randomTrace(frng, 3000+frng.Intn(4000)), sampleArchs(frng, 8, true))
	}
}

// TestSimulateBatchParallelSweepsBitIdentical is the schedule-freedom
// property of the parallel per-geometry sweeps: any worker count (and
// therefore any interleaving of the line-tracker, BTB, cache-stack and
// pairing-group sweeps within their dependency waves) must produce results
// bit-identical to the sequential pass, over real program traces, fuzzed
// adversarial traces, and both architecture spaces.
func TestSimulateBatchParallelSweepsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	check := func(tr *trace.Trace, archs []uarch.Config) {
		t.Helper()
		want := SimulateBatch(tr, archs)
		for _, workers := range []int{0, 1, 2, 3, 4, 8, runtime.GOMAXPROCS(0)} {
			got := SimulateBatchWith(tr, archs, workers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d config %d (%v): parallel sweep differs from sequential:\n  got %+v\n want %+v",
						workers, i, archs[i].String(), got[i], want[i])
				}
			}
		}
	}
	m := prog.MustBuild("gs")
	o3 := opt.O3()
	p, err := core.Compile(m, &o3)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(p, trace.Config{Runs: 1, MaxInsns: 30000, Seed: 3})
	check(tr, sampleArchs(rng, 24, false))
	check(tr, sampleArchs(rng, 24, true))
	check(pairingEdgeTrace(2*blockEvents+37), sampleArchs(rng, 16, true))
	for seed := int64(0); seed < 6; seed++ {
		frng := rand.New(rand.NewSource(seed))
		ftr := randomTrace(frng, 2000+frng.Intn(3000))
		check(ftr, sampleArchs(frng, 1+frng.Intn(24), seed%2 == 0))
	}
}

// sweepStackReference is the per-stack sweep the chains replaced: a stack
// replays its block's whole access list on its own - memList for a data
// stack (changed nil), every line-change position for an instruction one.
func sweepStackReference(s *lruStack, memList []uint64, pcList []uint32, changed bitset, words int) {
	if changed == nil {
		for _, mp := range memList {
			s.access(uint32(mp), mp>>63 != 0, true)
		}
		return
	}
	for w := 0; w < words; w++ {
		for word := changed[w]; word != 0; word &= word - 1 {
			j := w<<6 + bits.TrailingZeros64(word)
			s.access(pcList[j], false, false)
		}
	}
}

// stackGeom is one tag stack of a chain test.
type stackGeom struct {
	setBits, blockLg uint32
	assocs           []int
	ring             bool // force the ring encoding
}

// sampleGeoms lists the data (or instruction) cache stacks the engine
// builds for archs: one per (set count, block size), first-seen order.
func sampleGeoms(archs []uarch.Config, data bool) []stackGeom {
	var geoms []stackGeom
	for _, cfg := range archs {
		size, assoc, block := cfg.IL1Size, cfg.IL1Assoc, cfg.IL1Block
		if data {
			size, assoc, block = cfg.DL1Size, cfg.DL1Assoc, cfg.DL1Block
		}
		setBits, blockLg := geomBits(size, assoc, block)
		i := slices.IndexFunc(geoms, func(g stackGeom) bool { return g.setBits == setBits && g.blockLg == blockLg })
		if i < 0 {
			i = len(geoms)
			geoms = append(geoms, stackGeom{setBits: setBits, blockLg: blockLg})
		}
		if !slices.Contains(geoms[i].assocs, assoc) {
			geoms[i].assocs = append(geoms[i].assocs, assoc)
		}
	}
	return geoms
}

func newBitset() bitset { return make(bitset, blockWords) }

// chainsMatchIndependent replays tr through the stacks of geoms twice -
// chained, as the engine sweeps them, and each on its own through
// sweepStackReference - as data stacks or as instruction stacks over
// their block size's line changes, and compares every member's miss,
// load-miss and store-miss counts after every block.
func chainsMatchIndependent(tr *trace.Trace, geoms []stackGeom, data bool) error {
	sc := getSimScratch()
	defer putSimScratch(sc)
	build := func() []*lruStack {
		var out []*lruStack
		for _, g := range geoms {
			out = append(out, newStackIn(sc, g.setBits, g.blockLg, g.assocs, g.ring))
		}
		return out
	}
	chained, indep := build(), build()
	var tracks []lineTrack // one per instruction block size
	for _, g := range geoms {
		if !data && !slices.ContainsFunc(tracks, func(lt lineTrack) bool { return lt.blockLg == g.blockLg }) {
			tracks = append(tracks, lineTrack{blockLg: g.blockLg, prevLine: ^uint32(0), changed: newBitset()})
		}
	}
	chains := chainStacks(chained, tracks, nil, sc)
	var memList []uint64
	var pcList []uint32
	for start := 0; start < len(tr.Events); start += blockEvents {
		evs := tr.Events[start:min(start+blockEvents, len(tr.Events))]
		words := (len(evs) + 63) / 64
		memList, pcList = memList[:0], pcList[:0]
		for j, ev := range evs {
			pcList = append(pcList, ev.PC)
			switch isa.Op(ev.Op) {
			case isa.OpLoad:
				memList = append(memList, uint64(ev.Addr)|uint64(j)<<32)
			case isa.OpStore:
				memList = append(memList, uint64(ev.Addr)|uint64(j)<<32|1<<63)
			}
		}
		for t := range tracks {
			lt := &tracks[t]
			lt.changed.clearWords(blockWords)
			for j, pc := range pcList {
				if line := pc >> lt.blockLg; line != lt.prevLine {
					lt.changed.set(j)
					lt.prevLine = line
				}
			}
		}
		for i := range chains {
			chains[i].sweep(memList, pcList, words)
		}
		for i, s := range indep {
			var changed bitset
			for _, lt := range tracks {
				if lt.blockLg == s.blockLg {
					changed = lt.changed
				}
			}
			sweepStackReference(s, memList, pcList, changed, words)
			for k, m := range s.members {
				c := chained[i].members[k]
				if c.misses != m.misses || c.loadMisses != m.loadMisses || c.storeMisses != m.storeMisses {
					return fmt.Errorf("sets=%d block=%d assoc=%d: block at event %d: chained (miss=%d load=%d store=%d) != independent (miss=%d load=%d store=%d)",
						1<<s.setBits, 1<<s.blockLg, m.assoc, start, c.misses, c.loadMisses, c.storeMisses, m.misses, m.loadMisses, m.storeMisses)
				}
			}
		}
	}
	return nil
}

// TestStackChainMatchesIndependent holds the chained tag-stack sweep to
// the independent per-stack sweep it replaced, member for member, over
// real program traces (one spanning several blocks) and seeded random
// ones: the instruction and data stacks of 12- and 200-architecture
// samples, set-count gaps, chains of length 1, permutation-word and ring
// stacks mixed in one chain, and several block sizes at once. A call the
// data-stream memo answers runs instruction chains only, and is held to
// Simulate.
func TestStackChainMatchesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var trs []*trace.Trace
	for _, name := range []string{"gs", "crc", "patricia"} {
		trs = append(trs, programTraces(t, name, rng, 1)...)
	}
	m := prog.MustBuild("rijndael_e")
	o3 := opt.O3()
	p, err := core.Compile(m, &o3)
	if err != nil {
		t.Fatal(err)
	}
	trs = append(trs, trace.Generate(p, trace.Config{Runs: 1, MaxInsns: 2*blockEvents + 4321, Seed: 3}))
	for seed := int64(0); seed < 3; seed++ {
		trs = append(trs, randomTrace(rand.New(rand.NewSource(seed)), blockEvents+3000*int(seed)+17))
	}
	crafted := map[string][]stackGeom{
		"set-count gap, 2 and 64 sets": {{setBits: 6, blockLg: 5, assocs: []int{1, 4}}, {setBits: 1, blockLg: 5, assocs: []int{2, 64}}},
		"chain of length 1":            {{setBits: 3, blockLg: 4, assocs: []int{1, 2, 8}}},
		"perm and ring in one chain": {
			{setBits: 0, blockLg: 3, assocs: []int{4, 64}},
			{setBits: 2, blockLg: 3, assocs: []int{2, 16}},
			{setBits: 4, blockLg: 3, assocs: []int{1, 8}, ring: true},
			{setBits: 5, blockLg: 3, assocs: []int{32}},
			{setBits: 7, blockLg: 3, assocs: []int{1, 2}},
		},
		"three block sizes": {
			{setBits: 2, blockLg: 2, assocs: []int{32}}, {setBits: 5, blockLg: 5, assocs: []int{4}},
			{setBits: 1, blockLg: 4, assocs: []int{8}}, {setBits: 0, blockLg: 5, assocs: []int{64}},
			{setBits: 3, blockLg: 2, assocs: []int{1, 2}}, {setBits: 9, blockLg: 4, assocs: []int{16}},
		},
	}
	samples := [][]uarch.Config{sampleArchs(rng, 11, false), sampleArchs(rng, 198, true)}
	for ti, tr := range trs {
		for _, data := range []bool{true, false} {
			for name, geoms := range crafted {
				if err := chainsMatchIndependent(tr, geoms, data); err != nil {
					t.Fatalf("trace %d, %s, data=%v: %v", ti, name, data, err)
				}
			}
			for si, archs := range samples {
				if err := chainsMatchIndependent(tr, sampleGeoms(archs, data), data); err != nil {
					t.Fatalf("trace %d, sample %d, data=%v: %v", ti, si, data, err)
				}
			}
		}
	}

	t.Run("memo hit", func(t *testing.T) {
		archs := samples[1]
		var memo DataMemo
		for _, tr := range trs[len(trs)-4 : len(trs)-2] {
			want := make([]Result, len(archs))
			for i, cfg := range archs {
				want[i] = Simulate(tr, cfg)
			}
			for pass := 0; pass < 2; pass++ {
				rs, reused := SimulateBatchMemo(tr, archs, 1, &memo)
				if reused != (pass == 1) {
					t.Fatalf("pass %d: reused = %v", pass, reused)
				}
				for i := range archs {
					if rs[i] != want[i] {
						t.Fatalf("pass %d config %d (%s):\n  got %+v\n want %+v", pass, i, archs[i].String(), rs[i], want[i])
					}
				}
			}
		}
	})
}

// TestSimulateBatchDegenerate covers the edges: no configurations, an
// empty trace, and duplicate configurations sharing all state.
func TestSimulateBatchDegenerate(t *testing.T) {
	if got := SimulateBatch(&trace.Trace{}, nil); got != nil {
		t.Errorf("empty config list: got %v, want nil", got)
	}
	empty := &trace.Trace{}
	rs := SimulateBatch(empty, []uarch.Config{uarch.XScale()})
	if rs[0].Cycles != 0 || rs[0].Insns != 0 {
		t.Errorf("empty trace: got %+v", rs[0])
	}
	rng := rand.New(rand.NewSource(1))
	tr := randomTrace(rng, 1000)
	dup := []uarch.Config{uarch.XScale(), uarch.XScale(), uarch.XScale()}
	assertBatchMatches(t, tr, dup)
}

// TestSimulateBatchRejectsBadBTBGeometry holds the batched engine to
// Simulate's contract on a BTB geometry bpred refuses: the same panic.
func TestSimulateBatchRejectsBadBTBGeometry(t *testing.T) {
	bad := uarch.XScale()
	bad.BTBAssoc = 3
	tr := randomTrace(rand.New(rand.NewSource(1)), 100)
	panicOf := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	want := panicOf(func() { Simulate(tr, bad) })
	if want == nil {
		t.Fatal("Simulate accepted BTB associativity 3")
	}
	got := panicOf(func() { SimulateBatch(tr, []uarch.Config{uarch.XScale(), bad}) })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("SimulateBatch panics with %v, Simulate with %v", got, want)
	}
}

// TestRefusedConfigsFallBackToSimulate holds the engine to its fallback:
// a configuration uarch.Validate refuses but Simulate accepts (a clock
// off the frequency list, width 3, a 2 KiB IL1) never indexes the
// geometry tables, and is answered by Simulate - alone or beside a
// sampled architecture set, sequential, at two workers and through a
// data-stream memo.
func TestRefusedConfigsFallBackToSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := randomTrace(rng, 4000)
	f450, w3, il1 := uarch.XScale(), uarch.XScale(), uarch.XScale()
	f450.FreqMHz = 450
	w3.Width = 3
	il1.IL1Size = 2 << 10
	refused := []uarch.Config{f450, w3, il1}
	for _, cfg := range refused {
		if cfg.Validate() == nil {
			t.Fatalf("%s: uarch.Validate accepts it, so it does not test the fallback", cfg.String())
		}
	}
	sample := sampleArchs(rng, 12, true)
	sets := map[string][]uarch.Config{"all refused": refused, "mixed": append(append(sample[:6:6], refused...), sample[6:]...)}
	for _, cfg := range refused {
		sets["alone "+cfg.String()] = []uarch.Config{cfg}
	}
	for name, archs := range sets {
		want := make([]Result, len(archs))
		for i, cfg := range archs {
			want[i] = Simulate(tr, cfg)
		}
		var memo DataMemo
		filled, _ := SimulateBatchMemo(tr, archs, 1, &memo)
		answered, _ := SimulateBatchMemo(tr, archs, 1, &memo)
		for how, got := range map[string][]Result{
			"SimulateBatch": SimulateBatch(tr, archs),
			"2 workers":     SimulateBatchWith(tr, archs, 2),
			"memo fill":     filled,
			"memo answered": answered,
		} {
			for i := range archs {
				if got[i] != want[i] {
					t.Fatalf("%s, %s: config %d (%s):\n  got %+v\n want %+v", name, how, i, archs[i].String(), got[i], want[i])
				}
			}
		}
	}
}
