package cpu

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"portcc/internal/pcerr"
	"portcc/internal/prog"
	"portcc/internal/trace"
	"portcc/internal/uarch"
)

// assertProfileMatches holds a profile of tr, built over workers, to
// Simulate on every configuration, the whole Result compared, EnergyNJ
// included.
func assertProfileMatches(t *testing.T, what string, tr *trace.Trace, workers int, archs []uarch.Config) {
	t.Helper()
	p := NewProfile(tr, workers)
	for _, cfg := range archs {
		got, err := p.Result(cfg)
		if err != nil {
			t.Fatalf("%s %s: %v", what, cfg.String(), err)
		}
		if want := Simulate(tr, cfg); got != want {
			t.Fatalf("%s %s:\n profile %+v\n    want %+v", what, cfg.String(), got, want)
		}
	}
}

// TestProfileMatchesSimulate is the profile's bit-identity property: for
// every suite program's -O3 trace, adversarial random traces and the
// pairing-edge trace, a Result assembled from the one covering replay is
// Simulate's on a seeded sample of the §7 space plus the XScale point,
// the synthetic ones built at full parallelism.
func TestProfileMatchesSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	archs := func(n int) []uarch.Config {
		return append(uarch.Space{Extended: true}.SampleN(rng, n), uarch.XScale())
	}
	for _, name := range prog.Names() {
		assertProfileMatches(t, name, traceFor(t, name), 1, archs(6))
	}
	for seed := int64(0); seed < 4; seed++ {
		frng := rand.New(rand.NewSource(seed))
		assertProfileMatches(t, "random", randomTrace(frng, 3000+frng.Intn(4000)), runtime.GOMAXPROCS(0), archs(24))
	}
	assertProfileMatches(t, "pairing edge", pairingEdgeTrace(2*blockEvents+37), runtime.GOMAXPROCS(0), archs(24))
}

// TestProfileCoversSpace pins the covering sample: every IL1 geometry,
// every DL1 geometry at every frequency and width, and every BTB
// geometry beside every IL1 block reads counts some configuration of the
// one replay filled - checked against the cover and against Simulate -
// and a configuration outside the space is refused.
func TestProfileCoversSpace(t *testing.T) {
	filled := map[[2]int]bool{} // (table, index) cells the cover writes
	for i := range cover {
		c := &cover[i]
		filled[[2]int{0, cacheGeom(c.IL1Size, c.IL1Assoc, c.IL1Block)}] = true
		filled[[2]int{1, cacheGeom(c.DL1Size, c.DL1Assoc, c.DL1Block)}] = true
		filled[[2]int{2, fetchStream(c)}] = true
		filled[[2]int{2 + c.Width, c.DL1Latency()}] = true
		if c.Width == 2 {
			filled[[2]int{5, fetchStream(c)*(maxLoadUse+1) + c.DL1Latency()}] = true
		}
	}
	need := func(cfg uarch.Config) {
		t.Helper()
		cells := [][2]int{
			{0, cacheGeom(cfg.IL1Size, cfg.IL1Assoc, cfg.IL1Block)},
			{1, cacheGeom(cfg.DL1Size, cfg.DL1Assoc, cfg.DL1Block)},
			{2, fetchStream(&cfg)},
			{2 + cfg.Width, cfg.DL1Latency()},
		}
		if cfg.Width == 2 {
			cells = append(cells, [2]int{5, fetchStream(&cfg)*(maxLoadUse+1) + cfg.DL1Latency()})
		}
		for _, cell := range cells {
			if !filled[cell] {
				t.Fatalf("%s: cell %v is not in the covering sample", cfg.String(), cell)
			}
		}
	}

	tr := randomTrace(rand.New(rand.NewSource(7)), 3000)
	var archs []uarch.Config
	for _, size := range uarch.CacheSizes {
		for _, assoc := range uarch.CacheAssocs {
			for _, block := range uarch.CacheBlocks {
				c := uarch.XScale()
				c.IL1Size, c.IL1Assoc, c.IL1Block = size, assoc, block
				archs = append(archs, c)
				for _, f := range uarch.Frequencies {
					for _, w := range uarch.Widths {
						d := uarch.XScale()
						d.DL1Size, d.DL1Assoc, d.DL1Block, d.FreqMHz, d.Width = size, assoc, block, f, w
						archs = append(archs, d)
					}
				}
			}
		}
	}
	for _, entries := range uarch.BTBEntries {
		for _, assoc := range uarch.BTBAssocs {
			for _, block := range uarch.CacheBlocks {
				c := uarch.XScale()
				c.BTBSize, c.BTBAssoc, c.IL1Block = entries, assoc, block
				archs = append(archs, c)
			}
		}
	}
	for _, cfg := range archs {
		need(cfg)
	}
	assertProfileMatches(t, "random", tr, 1, archs)

	p := NewProfile(tr, 1)
	for _, bad := range []func(*uarch.Config){
		func(c *uarch.Config) { c.IL1Size = 12345 },
		func(c *uarch.Config) { c.BTBAssoc = 16 },
		func(c *uarch.Config) { c.FreqMHz = 0 },
		func(c *uarch.Config) { c.Width = 3 },
	} {
		cfg := uarch.XScale()
		bad(&cfg)
		if _, err := p.Result(cfg); !errors.Is(err, pcerr.ErrInvalidConfig) {
			t.Errorf("%s: err = %v, want ErrInvalidConfig", cfg.String(), err)
		}
	}
}

// TestCostTablesMatchFormulas walks the whole §7 space: the costs a
// Result reads from the tables are, with ==, the ones the uarch formulas
// give the configuration.
func TestCostTablesMatchFormulas(t *testing.T) {
	lists := [][]int{
		uarch.CacheSizes, uarch.CacheAssocs, uarch.CacheBlocks,
		uarch.CacheSizes, uarch.CacheAssocs, uarch.CacheBlocks,
		uarch.BTBEntries, uarch.BTBAssocs, uarch.Frequencies, uarch.Widths,
	}
	n := uarch.Space{Extended: true}.Count()
	var v [10]int
	for i := 0; i < n; i++ {
		for j, r := len(lists)-1, i; j >= 0; j-- {
			v[j] = lists[j][r%len(lists[j])]
			r /= len(lists[j])
		}
		cfg := uarch.Config{
			IL1Size: v[0], IL1Assoc: v[1], IL1Block: v[2],
			DL1Size: v[3], DL1Assoc: v[4], DL1Block: v[5],
			BTBSize: v[6], BTBAssoc: v[7], FreqMHz: v[8], Width: v[9],
		}
		got := tableCosts(&cfg, cacheGeom(cfg.IL1Size, cfg.IL1Assoc, cfg.IL1Block),
			cacheGeom(cfg.DL1Size, cfg.DL1Assoc, cfg.DL1Block), btbGeom(cfg.BTBSize, cfg.BTBAssoc))
		if want := costsOf(&cfg); got != want {
			t.Fatalf("%s: table %+v, formulas %+v", cfg.String(), got, want)
		}
	}
}

func BenchmarkProfileResult(b *testing.B) {
	p := NewProfile(randomTrace(rand.New(rand.NewSource(7)), 3000), 1)
	archs := uarch.Space{Extended: true}.SampleN(rand.New(rand.NewSource(8)), 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Result(archs[i%len(archs)]); err != nil {
			b.Fatal(err)
		}
	}
}
