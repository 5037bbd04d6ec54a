package passes_test

import (
	"math/rand"
	"sync"
	"testing"

	"portcc/internal/codegen"
	"portcc/internal/core"
	"portcc/internal/opt"
	"portcc/internal/prog"
)

// TestPooledValueNumberingConcurrent compiles one module under sixteen
// settings from eight goroutines at once, each in its own order, so the
// value-numbering tables pass between compiles of different settings
// and functions mid-flight: every binary must be byte-identical to the
// serial compile's.
func TestPooledValueNumberingConcurrent(t *testing.T) {
	m := prog.MustBuild("rijndael_e")
	rng := rand.New(rand.NewSource(16))
	settings := []opt.Config{opt.O3()}
	for len(settings) < 16 {
		settings = append(settings, opt.Random(rng))
	}
	fingerprint := func(c *opt.Config) codegen.Fingerprint {
		p, err := core.Compile(m, c)
		if err != nil {
			t.Error(err)
			return codegen.Fingerprint{}
		}
		fp, _ := codegen.FingerprintInto(p, nil)
		return fp
	}
	want := make([]codegen.Fingerprint, len(settings))
	for i := range settings {
		want[i] = fingerprint(&settings[i])
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range settings {
				i := (k + 2*g) % len(settings)
				if got := fingerprint(&settings[i]); got != want[i] {
					t.Errorf("goroutine %d, setting %d: binary differs from the serial compile's", g, i)
				}
			}
		}()
	}
	wg.Wait()
}
