package uarch

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpaceCount(t *testing.T) {
	if got := (Space{}).Count(); got != 288000 {
		t.Errorf("base space has %d configurations, paper says 288,000", got)
	}
	ext := (Space{Extended: true}).Count()
	if ext != 288000*len(Frequencies)*len(Widths) {
		t.Errorf("extended space count %d wrong", ext)
	}
}

func TestXScaleIsValid(t *testing.T) {
	xs := XScale()
	if err := xs.Validate(); err != nil {
		t.Fatal(err)
	}
	if xs.IL1Size != 32<<10 || xs.IL1Assoc != 32 || xs.IL1Block != 32 {
		t.Error("XScale I-cache must be 32K/32/32 (Table 2)")
	}
	if xs.BTBSize != 512 || xs.BTBAssoc != 1 {
		t.Error("XScale BTB must be 512 entries direct-mapped (Table 2)")
	}
	if xs.FreqMHz != 400 || xs.Width != 1 {
		t.Error("XScale reference is 400 MHz single-issue (Section 7)")
	}
}

func TestSamplesAreValid(t *testing.T) {
	f := func(seed int64, ext bool) bool {
		rng := rand.New(rand.NewSource(seed))
		c := Space{Extended: ext}.Sample(rng)
		return c.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleNDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cs := Space{}.SampleN(rng, 50)
	seen := map[Config]bool{}
	for _, c := range cs {
		if seen[c] {
			t.Fatal("SampleN returned duplicates")
		}
		seen[c] = true
	}
}

func TestDescriptors(t *testing.T) {
	xs := XScale()
	d := xs.Descriptors()
	if len(d) != 8 || len(DescriptorNames()) != 8 {
		t.Fatal("Table 2 has 8 descriptors")
	}
	// log2(512) = 9 for the BTB, log2(32K) = 15 for the caches.
	if d[0] != 9 {
		t.Errorf("btb_size descriptor = %g, want 9", d[0])
	}
	if d[2] != 15 {
		t.Errorf("i_size descriptor = %g, want 15", d[2])
	}
}

func TestCactiMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := Space{}.Sample(rng)
		bigger := c
		// Grow the data cache one size step if possible.
		for i, s := range CacheSizes {
			if s == c.DL1Size && i+1 < len(CacheSizes) {
				bigger.DL1Size = CacheSizes[i+1]
			}
		}
		if bigger.DL1Size == c.DL1Size {
			return true
		}
		return CactiLatency(bigger.DL1Size, bigger.DL1Assoc, bigger.DL1Block) >=
			CactiLatency(c.DL1Size, c.DL1Assoc, c.DL1Block) &&
			CactiEnergy(bigger.DL1Size, bigger.DL1Assoc, bigger.DL1Block) >
				CactiEnergy(c.DL1Size, c.DL1Assoc, c.DL1Block)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrequencyScaling(t *testing.T) {
	slow := XScale()
	slow.FreqMHz = 200
	fast := XScale()
	fast.FreqMHz = 600
	// A faster clock pays more cycles for the same DRAM nanoseconds.
	if fast.MissPenalty(32) <= slow.MissPenalty(32) {
		t.Error("miss penalty in cycles must grow with frequency")
	}
	if fast.DL1Latency() < slow.DL1Latency() {
		t.Error("cache latency in cycles must not shrink with frequency")
	}
}

func TestValidateRejectsBad(t *testing.T) {
	c := XScale()
	c.IL1Size = 12345
	if err := c.Validate(); err == nil {
		t.Error("invalid IL1 size accepted")
	}
}

func TestLatencyBounds(t *testing.T) {
	for _, s := range CacheSizes {
		for _, a := range CacheAssocs {
			for _, b := range CacheBlocks {
				lat := CactiLatency(s, a, b)
				if lat < 1 || lat > 6 {
					t.Errorf("CactiLatency(%d,%d,%d) = %d out of sane range", s, a, b, lat)
				}
			}
		}
	}
}

// stringRef is String's fmt-based body, the reference its appending
// form is held to.
func stringRef(c Config) string {
	return fmt.Sprintf("il1=%dK/%d/%d dl1=%dK/%d/%d btb=%d/%d f=%dMHz w=%d",
		c.IL1Size>>10, c.IL1Assoc, c.IL1Block,
		c.DL1Size>>10, c.DL1Assoc, c.DL1Block,
		c.BTBSize, c.BTBAssoc, c.FreqMHz, c.Width)
}

// TestStringMatchesReference compares over seeded samples of both
// spaces and over arbitrary integers, negative and wide ones included.
func TestStringMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	cfgs := append(Space{}.SampleN(rng, 500), Space{Extended: true}.SampleN(rng, 500)...)
	for i := 0; i < 1000; i++ {
		v := func() int { return int(rng.Uint64()) >> rng.Intn(64) }
		cfgs = append(cfgs, Config{v(), v(), v(), v(), v(), v(), v(), v(), v(), v()})
	}
	for _, c := range append(cfgs, Config{}, XScale()) {
		if got, want := c.String(), stringRef(c); got != want {
			t.Fatalf("String() = %q, reference %q", got, want)
		}
	}
}
