// Package uarch describes the embedded microarchitecture design space of
// the paper (Table 2): an XScale-class core whose instruction cache, data
// cache and branch target buffer are varied as powers of two, giving
// 288,000 configurations, plus the extended space of Section 7 that
// additionally varies clock frequency and issue width.
package uarch

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"portcc/internal/pcerr"
)

// Parameter value lists (Table 2). Every parameter varies as a power of 2.
var (
	// CacheSizes are the IL1/DL1 capacities in bytes (4K..128K).
	CacheSizes = []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
	// CacheAssocs are the IL1/DL1 associativities (4..64).
	CacheAssocs = []int{4, 8, 16, 32, 64}
	// CacheBlocks are the IL1/DL1 block sizes in bytes (8..64).
	CacheBlocks = []int{8, 16, 32, 64}
	// BTBEntries are the branch-target-buffer entry counts (128..2048).
	BTBEntries = []int{128, 256, 512, 1024, 2048}
	// BTBAssocs are the BTB associativities (1..8).
	BTBAssocs = []int{1, 2, 4, 8}
	// Frequencies are the §7 extended-space clock rates in MHz (200..600).
	Frequencies = []int{200, 300, 400, 500, 600}
	// Widths are the §7 extended-space issue widths.
	Widths = []int{1, 2}
)

// Config is one microarchitecture configuration.
type Config struct {
	IL1Size  int // bytes
	IL1Assoc int
	IL1Block int // bytes
	DL1Size  int // bytes
	DL1Assoc int
	DL1Block int // bytes
	BTBSize  int // entries
	BTBAssoc int

	// FreqMHz and Width belong to the extended space of §7; the base
	// space fixes them at the XScale values (400 MHz, single issue).
	FreqMHz int
	Width   int
}

// XScale returns the reference Intel XScale configuration of Table 2.
func XScale() Config {
	return Config{
		IL1Size: 32 << 10, IL1Assoc: 32, IL1Block: 32,
		DL1Size: 32 << 10, DL1Assoc: 32, DL1Block: 32,
		BTBSize: 512, BTBAssoc: 1,
		FreqMHz: 400, Width: 1,
	}
}

// Validate checks every parameter against its Table 2 value list.
func (c Config) Validate() error {
	check := func(v int, list []int, name string) error {
		for _, x := range list {
			if v == x {
				return nil
			}
		}
		return fmt.Errorf("uarch: %w: %s = %d not in %v", pcerr.ErrInvalidConfig, name, v, list)
	}
	checks := []error{
		check(c.IL1Size, CacheSizes, "IL1Size"),
		check(c.IL1Assoc, CacheAssocs, "IL1Assoc"),
		check(c.IL1Block, CacheBlocks, "IL1Block"),
		check(c.DL1Size, CacheSizes, "DL1Size"),
		check(c.DL1Assoc, CacheAssocs, "DL1Assoc"),
		check(c.DL1Block, CacheBlocks, "DL1Block"),
		check(c.BTBSize, BTBEntries, "BTBSize"),
		check(c.BTBAssoc, BTBAssocs, "BTBAssoc"),
		check(c.FreqMHz, Frequencies, "FreqMHz"),
		check(c.Width, Widths, "Width"),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	return nil
}

// String identifies the configuration compactly; stable across runs.
// It spells "il1=%dK/%d/%d dl1=%dK/%d/%d btb=%d/%d f=%dMHz w=%d" (sizes
// in KiB) by appending, since it keys every served program request.
func (c Config) String() string {
	var buf [64]byte
	b := buf[:0]
	for _, f := range [...]struct {
		sep string
		v   int
	}{
		{"il1=", c.IL1Size >> 10}, {"K/", c.IL1Assoc}, {"/", c.IL1Block},
		{" dl1=", c.DL1Size >> 10}, {"K/", c.DL1Assoc}, {"/", c.DL1Block},
		{" btb=", c.BTBSize}, {"/", c.BTBAssoc}, {" f=", c.FreqMHz}, {"MHz w=", c.Width},
	} {
		b = strconv.AppendInt(append(b, f.sep...), int64(f.v), 10)
	}
	return string(b)
}

// Descriptors returns the 8-element microarchitecture description d used as
// model features (Table 2 parameters, log2-encoded). The extended-space
// parameters are deliberately excluded, matching §7 of the paper: the model
// is evaluated on the extended space without new features.
func (c Config) Descriptors() []float64 {
	l2 := func(v int) float64 { return math.Log2(float64(v)) }
	return []float64{
		l2(c.BTBSize), l2(c.BTBAssoc),
		l2(c.IL1Size), l2(c.IL1Assoc), l2(c.IL1Block),
		l2(c.DL1Size), l2(c.DL1Assoc), l2(c.DL1Block),
	}
}

// DescriptorNames returns the Figure 9 feature labels for Descriptors.
func DescriptorNames() []string {
	return []string{
		"btb_size", "btb_assoc",
		"i_size", "i_assoc", "i_block",
		"d_size", "d_assoc", "d_block",
	}
}

// Space is a sampler over the design space. Extended enables the §7 space.
type Space struct {
	Extended bool
}

// Count returns the number of configurations in the space: 288,000 for the
// base space of Table 2, times |Frequencies|·|Widths| when extended.
func (s Space) Count() int {
	n := len(CacheSizes) * len(CacheAssocs) * len(CacheBlocks)
	n *= len(CacheSizes) * len(CacheAssocs) * len(CacheBlocks)
	n *= len(BTBEntries) * len(BTBAssocs)
	if s.Extended {
		n *= len(Frequencies) * len(Widths)
	}
	return n
}

// Sample draws one configuration with uniform random sampling, the paper's
// protocol for the 200-configuration experimental sample (§4.2).
func (s Space) Sample(rng *rand.Rand) Config {
	pick := func(list []int) int { return list[rng.Intn(len(list))] }
	c := Config{
		IL1Size: pick(CacheSizes), IL1Assoc: pick(CacheAssocs), IL1Block: pick(CacheBlocks),
		DL1Size: pick(CacheSizes), DL1Assoc: pick(CacheAssocs), DL1Block: pick(CacheBlocks),
		BTBSize: pick(BTBEntries), BTBAssoc: pick(BTBAssocs),
		FreqMHz: 400, Width: 1,
	}
	if s.Extended {
		c.FreqMHz = pick(Frequencies)
		c.Width = pick(Widths)
	}
	return c
}

// SampleN draws n distinct configurations.
func (s Space) SampleN(rng *rand.Rand, n int) []Config {
	seen := make(map[Config]bool, n)
	out := make([]Config, 0, n)
	for len(out) < n {
		c := s.Sample(rng)
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}
