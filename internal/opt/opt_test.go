package opt

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"portcc/internal/pcerr"
)

func TestO3Defaults(t *testing.T) {
	c := O3()
	on := []Flag{FGcse, FScheduleInsns, FInlineFunctions, FReorderBlocks, FTreeVrp, FTreePre}
	for _, f := range on {
		if !c.Flag(f) {
			t.Errorf("-O3 must enable %s", f)
		}
	}
	// gcc 4.2 -O3 does NOT enable these.
	off := []Flag{FUnrollLoops, FGcseSm, FGcseLas, FGcseAfterReload,
		FNoGcseLm, FNoSchedInterblock, FNoSchedSpec}
	for _, f := range off {
		if c.Flag(f) {
			t.Errorf("-O3 must not enable %s", f)
		}
	}
	if c.Param(PMaxInlineInsnsAuto) != 120 {
		t.Errorf("max-inline-insns-auto = %d, want 120", c.Param(PMaxInlineInsnsAuto))
	}
	if c.Param(PMaxGcsePasses) != 1 {
		t.Errorf("max-gcse-passes = %d, want 1", c.Param(PMaxGcsePasses))
	}
}

func TestKeyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := Random(rng)
		key := (&c).Key()
		back, err := ParseKey(key)
		return err == nil && back == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseKeyErrors(t *testing.T) {
	if _, err := ParseKey("short"); err == nil {
		t.Error("short key accepted")
	}
	o3 := O3()
	bad := "x" + o3.Key()[1:]
	if _, err := ParseKey(bad); err == nil {
		t.Error("bad flag byte accepted")
	}
}

// FuzzParseKey: a key arrives from outside (dataset files, the
// prediction server's answers, command lines). Arbitrary bytes never
// panic, and either fail typed or name a valid configuration whose Key
// is the input, byte for byte.
func FuzzParseKey(f *testing.F) {
	o3 := O3()
	f.Add(o3.Key())
	f.Add((&Config{}).Key())
	f.Add("short")
	f.Add("x" + o3.Key()[1:])
	f.Add(o3.Key()[:NumFlags+NumParams-1] + string(rune('0'+ParamLevelCount)))
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseKey(s)
		if err != nil {
			if !errors.Is(err, pcerr.ErrInvalidConfig) {
				t.Fatalf("ParseKey(%q): untyped error %v", s, err)
			}
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("ParseKey(%q) accepted a configuration Validate refuses: %v", s, err)
		}
		if got := c.Key(); got != s {
			t.Fatalf("ParseKey(%q).Key() = %q", s, got)
		}
	})
}

// TestValidateBoundsParamLevels: a level index is a uint8, the space has
// ParamLevelCount of them, and everything in between must be refused
// typed before Param indexes with it.
func TestValidateBoundsParamLevels(t *testing.T) {
	level := func(p Param, l uint8) Config { c := O3(); c.Params[p] = l; return c }
	for _, tc := range []struct {
		name string
		c    Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"-O3", O3(), true},
		{"random", Random(rand.New(rand.NewSource(3))), true},
		{"top level", level(PMaxUnrolledInsns, ParamLevelCount-1), true},
		{"first level past the space", level(PMaxGcsePasses, ParamLevelCount), false},
		{"last parameter", level(PMaxUnrolledInsns, 9), false},
		{"uint8 max", level(PInlineCallCost, 255), false},
	} {
		err := tc.c.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: refused: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, pcerr.ErrInvalidConfig) {
			t.Errorf("%s: got %v, want ErrInvalidConfig", tc.name, err)
		}
	}
}

func TestDimAccessors(t *testing.T) {
	f := func(seed int64, rawDim uint8, rawVal uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := Random(rng)
		d := int(rawDim) % NumDims
		v := int(rawVal) % DimSize(d)
		c.SetValue(d, v)
		return c.Value(d) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDimNamesMatchFlagNames(t *testing.T) {
	if DimName(0) != FThreadJumps.String() {
		t.Error("dimension 0 must be the first flag")
	}
	if DimName(NumFlags) != PMaxGcsePasses.String() {
		t.Error("dimension NumFlags must be the first parameter")
	}
	seen := map[string]bool{}
	for d := 0; d < NumDims; d++ {
		n := DimName(d)
		if seen[n] {
			t.Errorf("duplicate dimension name %q", n)
		}
		seen[n] = true
	}
}

func TestDimSizes(t *testing.T) {
	for d := 0; d < NumDims; d++ {
		want := 2
		if !DimIsFlag(d) {
			want = ParamLevelCount
		}
		if DimSize(d) != want {
			t.Errorf("DimSize(%d) = %d, want %d", d, DimSize(d), want)
		}
	}
}

func TestRandomDeterminism(t *testing.T) {
	a := Random(rand.New(rand.NewSource(5)))
	b := Random(rand.New(rand.NewSource(5)))
	if a != b {
		t.Error("Random is not deterministic for a fixed seed")
	}
}

func TestSpaceSizes(t *testing.T) {
	raw, eff, log10 := SpaceSizes()
	if raw != 1<<NumFlags {
		t.Errorf("raw = %g, want 2^%d", raw, NumFlags)
	}
	// The paper quotes 642 million effective combinations; ours must be
	// the same order of magnitude.
	if eff < 1e8 || eff > 3e9 {
		t.Errorf("effective combinations %g out of expected order", eff)
	}
	if log10 < 13 || log10 > 18 {
		t.Errorf("log10 full space = %g, expected ~14-15 (paper 17.2)", log10)
	}
}

func TestStringListsEnabledFlags(t *testing.T) {
	var c Config
	c.Flags[FGcse] = true
	s := c.String()
	if want := "-fgcse"; !contains(s, want) {
		t.Errorf("String() = %q, missing %q", s, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestLevelsAreSortedAndPositive(t *testing.T) {
	for p := 0; p < NumParams; p++ {
		lv := Levels(Param(p))
		for i := 0; i < len(lv); i++ {
			if lv[i] <= 0 {
				t.Errorf("%s level %d not positive", Param(p), i)
			}
			if i > 0 && lv[i] <= lv[i-1] {
				t.Errorf("%s levels not increasing", Param(p))
			}
		}
	}
}

// stringRef is String's fmt-based body, the reference its appending
// form is held to.
func stringRef(c *Config) string {
	var parts []string
	for f, on := range c.Flags {
		if on {
			parts = append(parts, "-"+flagNames[f])
		}
	}
	for p := range c.Params {
		parts = append(parts, fmt.Sprintf("--%s=%d", paramNames[p], c.Param(Param(p))))
	}
	return strings.Join(parts, " ")
}

func TestStringMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	cfgs := []Config{{}, O3()}
	for i := 0; i < 2000; i++ {
		cfgs = append(cfgs, Random(rng))
	}
	for _, c := range cfgs {
		if got, want := c.String(), stringRef(&c); got != want {
			t.Fatalf("String() = %q, reference %q", got, want)
		}
	}
}
