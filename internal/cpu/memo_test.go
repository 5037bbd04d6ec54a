package cpu

import (
	"math/rand"
	"sync"
	"testing"

	"portcc/internal/core"
	"portcc/internal/isa"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/trace"
	"portcc/internal/uarch"
)

// memoReplay runs tr through memo and holds every Result to want, the
// memo-less answer, and the reuse report to wantReused.
func memoReplay(t *testing.T, what string, tr *trace.Trace, archs []uarch.Config, workers int, memo *DataMemo, want []Result, wantReused bool) {
	t.Helper()
	got, reused := SimulateBatchMemo(tr, archs, workers, memo)
	if reused != wantReused {
		t.Errorf("%s: reused = %v, want %v", what, reused, wantReused)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: config %d (%s):\n  got %+v\n want %+v", what, i, archs[i].String(), got[i], want[i])
		}
	}
}

// programTraces compiles the named program under -O3 and n sampled
// settings and generates one trace per binary.
func programTraces(t *testing.T, name string, rng *rand.Rand, n int) []*trace.Trace {
	t.Helper()
	m := prog.MustBuild(name)
	cfgs := []opt.Config{opt.O3()}
	for i := 0; i < n; i++ {
		cfgs = append(cfgs, opt.Random(rng))
	}
	var trs []*trace.Trace
	for i := range cfgs {
		p, err := core.Compile(m, &cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, trace.Generate(p, trace.Config{Runs: 1, MaxInsns: 30000, Seed: 3}))
	}
	return trs
}

// TestDataMemoBitIdentical is the memo's whole contract: filling it and
// being answered from it both leave every Result == the memo-less
// engine's, over real programs and sampled settings, the base and the
// extended space, 12 and 200 architectures, sequential and fanned
// sweeps; the key separates what it must (another architecture sample,
// one access more, fewer or different) and nothing else (instructions
// between the same accesses); and a configuration outside the sampled
// widths, answered by Simulate, leaves the rest of its sample on it.
func TestDataMemoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	samples := [][]uarch.Config{sampleArchs(rng, 11, false), sampleArchs(rng, 198, true)}

	crossHits := 0 // a setting answered by another binary's sweep
	for _, name := range []string{"gs", "crc", "patricia"} {
		trs := programTraces(t, name, rng, 3)
		for _, archs := range samples {
			for _, workers := range []int{1, 4} {
				// One memo per program and sample, as the sweep holds it:
				// whether a setting fills or is answered depends on its
				// stream, the results on neither.
				var shared DataMemo
				for _, tr := range trs {
					want := SimulateBatchWith(tr, archs, workers)
					var memo DataMemo
					memoReplay(t, name+" fill", tr, archs, workers, &memo, want, false)
					memoReplay(t, name+" answered", tr, archs, workers, &memo, want, true)
					got, reused := SimulateBatchMemo(tr, archs, workers, &shared)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s, shared memo: config %d differs", name, i)
						}
					}
					if reused {
						crossHits++
					}
				}
			}
		}
	}
	if crossHits == 0 {
		t.Error("no sampled setting shared a data stream with another: the sample no longer exercises a cross-binary hit")
	}

	tr := programTraces(t, "gs", rng, 0)[0]
	a, b := samples[0], sampleArchs(rng, 12, true)
	wantA, wantB := SimulateBatch(tr, a), SimulateBatch(tr, b)

	t.Run("samples never cross-answer", func(t *testing.T) {
		var memo DataMemo
		memoReplay(t, "a fill", tr, a, 1, &memo, wantA, false)
		memoReplay(t, "b fill", tr, b, 1, &memo, wantB, false)
		memoReplay(t, "a answered", tr, a, 1, &memo, wantA, true)
		memoReplay(t, "b answered", tr, b, 1, &memo, wantB, true)
		// The same geometries in another order are another layout.
		rev := make([]uarch.Config, len(a))
		for i := range a {
			rev[len(a)-1-i] = a[i]
		}
		memoReplay(t, "a reversed", tr, rev, 1, &memo, SimulateBatch(tr, rev), false)
	})

	t.Run("two blocks", func(t *testing.T) {
		long := randomTrace(rng, blockEvents+5000)
		want := SimulateBatch(long, b)
		var memo DataMemo
		memoReplay(t, "fill", long, b, 1, &memo, want, false)
		memoReplay(t, "answered", long, b, 4, &memo, want, true)
	})

	t.Run("key", func(t *testing.T) {
		var memo DataMemo
		memoReplay(t, "fill", tr, a, 1, &memo, wantA, false)
		first, last := -1, -1
		for i, ev := range tr.Events {
			if isa.Op(ev.Op) == isa.OpLoad {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if first < 0 {
			t.Fatal("trace has no load")
		}
		// edit is tr with an edited copy of its events (and the counters
		// the engine reads beside them).
		edit := func(f func(evs []trace.Event) []trace.Event) *trace.Trace {
			evs := f(append([]trace.Event(nil), tr.Events...))
			return &trace.Trace{Events: evs, RegReads: tr.RegReads, RegWrites: tr.RegWrites, Runs: tr.Runs}
		}
		for what, v := range map[string]*trace.Trace{
			"a load flipped to a store": edit(func(evs []trace.Event) []trace.Event {
				evs[first].Op = uint8(isa.OpStore)
				return evs
			}),
			"one address changed": edit(func(evs []trace.Event) []trace.Event {
				evs[last].Addr ^= 0x40000
				return evs
			}),
			"stream truncated": edit(func(evs []trace.Event) []trace.Event { return evs[:last] }),
		} {
			memoReplay(t, what, v, a, 1, &memo, SimulateBatch(v, a), false)
		}
		// More instructions between the same accesses: another binary,
		// the same data stream.
		padded := edit(func(evs []trace.Event) []trace.Event {
			var out []trace.Event
			for i, ev := range evs {
				out = append(out, ev)
				if i%7 == 0 {
					out = append(out, trace.Event{PC: ev.PC + 4, Op: uint8(isa.OpALU), DistLoad: trace.NoDist, DistFU: trace.NoDist})
				}
			}
			return out
		})
		memoReplay(t, "padded", padded, a, 1, &memo, SimulateBatch(padded, a), true)
	})

	t.Run("width outside the space", func(t *testing.T) {
		w3 := uarch.XScale()
		w3.Width = 3
		wide := append(append([]uarch.Config(nil), b...), w3)
		want := make([]Result, len(wide))
		for i, cfg := range wide {
			want[i] = Simulate(tr, cfg)
		}
		var memo DataMemo
		memoReplay(t, "width-3 sample fill", tr, wide, 1, &memo, want, false)
		memoReplay(t, "width-3 sample answered", tr, wide, 1, &memo, want, true)
	})
}

// TestDataMemoConcurrent shares one memo among goroutines that reach the
// same new streams at once - nobody claims, nobody waits, whoever sweeps
// publishes equal counts - and holds every replay to the memo-less
// answer. Run under -race.
func TestDataMemoConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	archs := sampleArchs(rng, 12, true)
	trs := programTraces(t, "crc", rng, 3)
	want := make([][]Result, len(trs))
	for i, tr := range trs {
		want[i] = SimulateBatch(tr, archs)
	}
	var memo DataMemo
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 3*len(trs); n++ {
				i := (g + n) % len(trs)
				got, _ := SimulateBatchMemo(trs[i], archs, 1+g%2, &memo)
				for c := range got {
					if got[c] != want[i][c] {
						t.Errorf("goroutine %d, trace %d, config %d differs from the memo-less replay", g, i, c)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if _, reused := SimulateBatchMemo(trs[0], archs, 1, &memo); !reused {
		t.Error("a stream every goroutine replayed is not in the memo")
	}
}
