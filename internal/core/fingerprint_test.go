package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"sync"
	"testing"

	"portcc/internal/codegen"
	"portcc/internal/core"
	"portcc/internal/ir"
	"portcc/internal/opt"
	"portcc/internal/prog"
)

const fingerprintsPath = "testdata/fingerprints.json"

// fingerprintRecord is the suite's binaries under pinnedSettings: one
// digest over every fingerprint, and one per program to name where a
// change landed.
type fingerprintRecord struct {
	Comment  string            `json:"comment"`
	Digest   string            `json:"digest_sha256"`
	Programs map[string]string `json:"programs_sha256"`
}

// pinnedSettings is -O3, the zero configuration and 62 settings drawn
// from the test's own seed.
func pinnedSettings() []opt.Config {
	cfgs := []opt.Config{opt.O3(), {}}
	rng := rand.New(rand.NewSource(4099))
	for len(cfgs) < 64 {
		cfgs = append(cfgs, opt.Random(rng))
	}
	return cfgs
}

// TestCompileFingerprintsPinned holds the compiler to the binaries it
// compiled when the record was taken: the whole suite under 64 settings,
// eight times the compiles TestVersionsPinBehaviour (internal/dataset)
// digests. A compiler change that is meant to be invisible - a faster
// table, a cached analysis - must leave every fingerprint where it was;
// one that is not bumps core.Version and re-records with
//
//	PORTCC_UPDATE_GOLDEN=1 go test ./internal/core -run TestCompileFingerprintsPinned
func TestCompileFingerprintsPinned(t *testing.T) {
	cfgs := pinnedSettings()
	got := fingerprintRecord{
		Comment:  "suite x {-O3, zero config, 62 settings of seed 4099}: sha256 over codegen fingerprints in setting order; see TestCompileFingerprintsPinned",
		Programs: map[string]string{},
	}
	all := sha256.New()
	var buf []byte
	for _, name := range prog.Names() {
		m := prog.MustBuild(name)
		h := sha256.New()
		for i := range cfgs {
			bin, err := core.Compile(m, &cfgs[i])
			if err != nil {
				t.Fatalf("%s under %s: %v", name, cfgs[i].Key(), err)
			}
			var fp codegen.Fingerprint
			fp, buf = codegen.FingerprintInto(bin, buf)
			h.Write(fp[:])
			all.Write(fp[:])
		}
		got.Programs[name] = hex.EncodeToString(h.Sum(nil))
	}
	got.Digest = hex.EncodeToString(all.Sum(nil))

	if os.Getenv("PORTCC_UPDATE_GOLDEN") != "" {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintsPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", fingerprintsPath)
		return
	}
	data, err := os.ReadFile(fingerprintsPath)
	if err != nil {
		t.Fatalf("missing fingerprint record (run with PORTCC_UPDATE_GOLDEN=1 to create): %v", err)
	}
	var want fingerprintRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got.Digest == want.Digest {
		return
	}
	var moved []string
	for name, d := range got.Programs {
		if want.Programs[name] != d {
			moved = append(moved, name)
		}
	}
	sort.Strings(moved)
	t.Fatalf("the suite's binaries changed under core.Version %d (programs %v): "+
		"an invisible change must keep them, a visible one bumps core.Version and re-records", core.Version, moved)
}

// TestConcurrentCompilesBitIdentical compiles a seeded sweep of two
// programs of very different sizes from six goroutines at once, each in
// its own order, so every pooled pass table - value numbering, the
// scheduler's - moves between functions and settings mid-flight: every
// binary must be the serial compile's.
func TestConcurrentCompilesBitIdentical(t *testing.T) {
	mods := []*ir.Module{prog.MustBuild("gs"), prog.MustBuild("crc")}
	cfgs := pinnedSettings()[:16]
	fingerprint := func(i int) codegen.Fingerprint {
		bin, err := core.Compile(mods[i%len(mods)], &cfgs[i/len(mods)])
		if err != nil {
			t.Error(err)
			return codegen.Fingerprint{}
		}
		fp, _ := codegen.FingerprintInto(bin, nil)
		return fp
	}
	n := len(mods) * len(cfgs)
	want := make([]codegen.Fingerprint, n)
	for i := range want {
		want[i] = fingerprint(i)
	}
	var wg sync.WaitGroup
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range n {
				i := (k*(2*g+1) + 5*g) % n
				if fingerprint(i) != want[i] {
					t.Errorf("goroutine %d: binary %d differs from the serial compile's", g, i)
				}
			}
		}()
	}
	wg.Wait()
}
