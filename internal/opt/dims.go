package opt

import (
	"fmt"
	"math"
)

// The machine-learning model treats the optimisation space as a sequence of
// independent dimensions y_1..y_L (the paper's "passes"); a boolean flag is
// a dimension with two values, a parameter a dimension with four levels.

// NumDims is L, the total number of optimisation dimensions.
const NumDims = NumFlags + NumParams

// DimSize returns |S_l|, the number of values dimension d can take.
func DimSize(d int) int {
	if d < NumFlags {
		return 2
	}
	return ParamLevelCount
}

// MaxDimSize is the largest |S_l| across dimensions.
const MaxDimSize = ParamLevelCount

// DimName returns the gcc-style name of dimension d.
func DimName(d int) string {
	if d < 0 || d >= NumDims {
		return fmt.Sprintf("dim(%d)", d)
	}
	if d < NumFlags {
		return flagNames[d]
	}
	return paramNames[d-NumFlags]
}

// Value returns the value index of dimension d in the configuration:
// 0/1 for flags, the level index for parameters.
func (c *Config) Value(d int) int {
	if d < NumFlags {
		if c.Flags[d] {
			return 1
		}
		return 0
	}
	return int(c.Params[d-NumFlags])
}

// SetValue assigns value index v to dimension d.
func (c *Config) SetValue(d, v int) {
	if d < NumFlags {
		c.Flags[d] = v != 0
		return
	}
	c.Params[d-NumFlags] = uint8(v)
}

// SpaceSizes reports the size of the optimisation space: the raw number of
// flag combinations, the number of *effective* flag combinations once
// flags nested under a disabled parent are collapsed (the paper quotes
// 642 million effective combinations for its space), and the log10 of the
// full space including parameters (the paper quotes 1.69e17).
func SpaceSizes() (raw, effective float64, log10Full float64) {
	raw = math.Pow(2, float64(NumFlags))
	// fno_gcse_lm, fgcse_sm, fgcse_las, fgcse_after_reload and
	// max_gcse_passes only matter when fgcse is on; fno_sched_interblock
	// and fno_sched_spec only when fschedule_insns is on; the unroll and
	// inline parameters only when their flag is on.
	free := float64(NumFlags - 1 - 4 - 1 - 2) // minus gcse+subflags, sched+subflags
	effective = math.Pow(2, free) * (math.Pow(2, 4) + 1) * (math.Pow(2, 2) + 1)
	full := raw * math.Pow(ParamLevelCount, float64(NumParams))
	log10Full = math.Log10(full)
	return raw, effective, log10Full
}
