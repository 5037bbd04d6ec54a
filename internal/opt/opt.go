// Package opt defines the compiler optimisation space of the paper
// (Figure 3): 30 boolean pass flags plus 9 bounded parameters, matching
// the gcc 4.2 flags listed on the Figure 8 axis.
//
// The machine-learning model views the space as L independent dimensions
// ("passes" in the paper's terminology), each taking one of |S_l| values;
// the unified Dim accessors expose that view.
package opt

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"portcc/internal/pcerr"
)

// Flag indexes a boolean optimisation flag.
type Flag int

// The boolean flags, in the order of the paper's Figure 8 axis (bottom-up).
const (
	FThreadJumps Flag = iota
	FCrossjumping
	FOptimizeSiblingCalls
	FCseFollowJumps
	FCseSkipBlocks
	FExpensiveOptimizations
	FStrengthReduce
	FRerunCseAfterLoop
	FRerunLoopOpt
	FCallerSaves
	FPeephole2
	FRegmove
	FReorderBlocks
	FAlignFunctions
	FAlignJumps
	FAlignLoops
	FAlignLabels
	FTreeVrp
	FTreePre
	FUnswitchLoops
	FGcse
	FNoGcseLm
	FGcseSm
	FGcseLas
	FGcseAfterReload
	FScheduleInsns
	FNoSchedInterblock
	FNoSchedSpec
	FInlineFunctions
	FUnrollLoops

	// NumFlags is the number of boolean flags.
	NumFlags = int(FUnrollLoops) + 1
)

var flagNames = [NumFlags]string{
	"fthread_jumps",
	"fcrossjumping",
	"foptimize_sibling_calls",
	"fcse_follow_jumps",
	"fcse_skip_blocks",
	"fexpensive_optimizations",
	"fstrength_reduce",
	"frerun_cse_after_loop",
	"frerun_loop_opt",
	"fcaller_saves",
	"fpeephole2",
	"fregmove",
	"freorder_blocks",
	"falign_functions",
	"falign_jumps",
	"falign_loops",
	"falign_labels",
	"ftree_vrp",
	"ftree_pre",
	"funswitch_loops",
	"fgcse",
	"fno_gcse_lm",
	"fgcse_sm",
	"fgcse_las",
	"fgcse_after_reload",
	"fschedule_insns",
	"fno_sched_interblock",
	"fno_sched_spec",
	"finline_functions",
	"funroll_loops",
}

// String returns the gcc-style flag name.
func (f Flag) String() string {
	if int(f) < NumFlags {
		return flagNames[f]
	}
	return fmt.Sprintf("flag(%d)", int(f))
}

// Param indexes a bounded optimisation parameter.
type Param int

// The parameters of Figure 3, each with four levels (see Levels).
const (
	PMaxGcsePasses Param = iota
	PMaxInlineInsnsAuto
	PLargeFunctionInsns
	PLargeFunctionGrowth
	PLargeUnitInsns
	PInlineUnitGrowth
	PInlineCallCost
	PMaxUnrollTimes
	PMaxUnrolledInsns

	// NumParams is the number of parameters.
	NumParams = int(PMaxUnrolledInsns) + 1
)

var paramNames = [NumParams]string{
	"param_max_gcse_passes",
	"param_max_inline_insns_auto",
	"param_large_function_insns",
	"param_large_function_growth",
	"param_large_unit_insns",
	"param_inline_unit_growth",
	"param_inline_call_cost",
	"param_max_unroll_times",
	"param_max_unrolled_insns",
}

// String returns the gcc-style parameter name.
func (p Param) String() string {
	if int(p) < NumParams {
		return paramNames[p]
	}
	return fmt.Sprintf("param(%d)", int(p))
}

// paramLevels gives the value taken at each of the four levels of every
// parameter; level 1 is the gcc 4.2 default (except max_gcse_passes whose
// default is level 0).
var paramLevels = [NumParams][4]int{
	PMaxGcsePasses:       {1, 2, 3, 4},
	PMaxInlineInsnsAuto:  {30, 60, 120, 240},
	PLargeFunctionInsns:  {675, 1350, 2700, 5400},
	PLargeFunctionGrowth: {25, 50, 100, 200},
	PLargeUnitInsns:      {2500, 5000, 10000, 20000},
	PInlineUnitGrowth:    {12, 25, 50, 100},
	PInlineCallCost:      {8, 16, 32, 64},
	PMaxUnrollTimes:      {2, 4, 8, 16},
	PMaxUnrolledInsns:    {50, 100, 200, 400},
}

// ParamLevelCount is the number of levels of every parameter.
const ParamLevelCount = 4

// Levels returns the possible values of parameter p.
func Levels(p Param) [4]int { return paramLevels[p] }

// Config is one point of the optimisation space: a full assignment to every
// flag and parameter. The zero value is "everything off, all parameters at
// their lowest level" (roughly gcc -O0 within this space).
type Config struct {
	Flags  [NumFlags]bool
	Params [NumParams]uint8 // level index, 0..ParamLevelCount-1
}

// Flag reports the setting of boolean flag f.
func (c *Config) Flag(f Flag) bool { return c.Flags[f] }

// Param returns the concrete value of parameter p. The level index is
// used unchecked: a Config from outside the process (a decoded request,
// a job spec off the wire) must pass Validate first.
func (c *Config) Param(p Param) int { return paramLevels[p][c.Params[p]] }

// Validate rejects a configuration holding a parameter level outside
// 0..ParamLevelCount-1 - representable in the uint8, absent from the
// space, and an index out of range in Param.
func (c *Config) Validate() error {
	for p, l := range c.Params {
		if l >= ParamLevelCount {
			return fmt.Errorf("opt: %w: %s at level %d of %d", pcerr.ErrInvalidConfig, paramNames[p], l, ParamLevelCount)
		}
	}
	return nil
}

// O3 returns the highest default optimisation level: the gcc 4.2 -O3
// setting projected onto this space. This is the paper's baseline: all
// speedups are measured relative to it. Note funroll_loops and the extra
// gcse variants are off at -O3, exactly as in gcc 4.2.
func O3() Config {
	var c Config
	for _, f := range []Flag{
		FThreadJumps, FCrossjumping, FOptimizeSiblingCalls,
		FCseFollowJumps, FCseSkipBlocks, FExpensiveOptimizations,
		FStrengthReduce, FRerunCseAfterLoop, FRerunLoopOpt,
		FCallerSaves, FPeephole2, FRegmove, FReorderBlocks,
		FAlignFunctions, FAlignJumps, FAlignLoops, FAlignLabels,
		FTreeVrp, FTreePre, FUnswitchLoops, FGcse,
		FScheduleInsns, FInlineFunctions,
	} {
		c.Flags[f] = true
	}
	// fno_gcse_lm / fno_sched_interblock / fno_sched_spec are negative
	// flags: false means the underlying optimisation is enabled.
	c.Params[PMaxGcsePasses] = 0
	c.Params[PMaxInlineInsnsAuto] = 2  // 120
	c.Params[PLargeFunctionInsns] = 2  // 2700
	c.Params[PLargeFunctionGrowth] = 2 // 100
	c.Params[PLargeUnitInsns] = 2      // 10000
	c.Params[PInlineUnitGrowth] = 2    // 50
	c.Params[PInlineCallCost] = 1      // 16
	c.Params[PMaxUnrollTimes] = 2      // 8
	c.Params[PMaxUnrolledInsns] = 2    // 200
	return c
}

// Random returns a uniformly random point of the space, as used by the
// paper's iterative-compilation search (uniform random sampling, §4.3).
func Random(rng *rand.Rand) Config {
	var c Config
	for f := range c.Flags {
		c.Flags[f] = rng.Intn(2) == 1
	}
	for p := range c.Params {
		c.Params[p] = uint8(rng.Intn(ParamLevelCount))
	}
	return c
}

// Key returns a compact canonical encoding of the configuration, usable as
// a map key and stable across runs.
func (c *Config) Key() string {
	var b strings.Builder
	b.Grow(NumFlags + NumParams)
	for _, on := range c.Flags {
		if on {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	for _, l := range c.Params {
		b.WriteByte('0' + byte(l))
	}
	return b.String()
}

// ParseKey reconstructs a configuration from Key output.
func ParseKey(s string) (Config, error) {
	var c Config
	if len(s) != NumFlags+NumParams {
		return c, fmt.Errorf("opt: %w: key length %d, want %d", pcerr.ErrInvalidConfig, len(s), NumFlags+NumParams)
	}
	for i := 0; i < NumFlags; i++ {
		switch s[i] {
		case '0':
		case '1':
			c.Flags[i] = true
		default:
			return c, fmt.Errorf("opt: %w: bad flag byte %q at %d", pcerr.ErrInvalidConfig, s[i], i)
		}
	}
	for i := 0; i < NumParams; i++ {
		l := s[NumFlags+i] - '0'
		if l >= ParamLevelCount {
			return c, fmt.Errorf("opt: %w: bad level byte %q at %d", pcerr.ErrInvalidConfig, s[NumFlags+i], i)
		}
		c.Params[i] = l
	}
	return c, nil
}

// String lists the enabled flags and parameter values gcc-style,
// space-separated: "-flag" for each flag set, then "--param=value" for
// every parameter. Built by appending, since it runs for every computed
// prediction answer.
func (c *Config) String() string {
	var buf [1024]byte
	b := buf[:0]
	for f, on := range c.Flags {
		if on {
			b = append(append(b, " -"...), flagNames[f]...)
		}
	}
	for p := range c.Params {
		b = append(append(append(b, " --"...), paramNames[p]...), '=')
		b = strconv.AppendInt(b, int64(c.Param(Param(p))), 10)
	}
	return string(b[1:]) // every configuration lists its parameters
}
