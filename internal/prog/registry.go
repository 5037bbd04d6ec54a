package prog

import (
	"fmt"

	"portcc/internal/ir"
	"portcc/internal/pcerr"
)

// builderFunc constructs one benchmark program.
type builderFunc func() *B

// registry maps program names to their builders. Names and ordering follow
// the paper's Figure 4 x-axis (all 35 MiBench programs).
var registry = map[string]builderFunc{
	"qsort":      buildQsort,
	"rawcaudio":  buildRawcaudio,
	"tiff2rgba":  buildTiff2rgba,
	"gs":         buildGs,
	"djpeg":      buildDjpeg,
	"patricia":   buildPatricia,
	"basicmath":  buildBasicmath,
	"lout":       buildLout,
	"fft_i":      buildFftI,
	"fft":        buildFft,
	"susan_s":    buildSusanS,
	"susan_c":    buildSusanC,
	"tiffmedian": buildTiffmedian,
	"ispell":     buildIspell,
	"pgp":        buildPgp,
	"tiffdither": buildTiffdither,
	"bf_e":       buildBfE,
	"bf_d":       buildBfD,
	"rawdaudio":  buildRawdaudio,
	"pgp_sa":     buildPgpSa,
	"tiff2bw":    buildTiff2bw,
	"cjpeg":      buildCjpeg,
	"lame":       buildLame,
	"dijkstra":   buildDijkstra,
	"susan_e":    buildSusanE,
	"toast":      buildToast,
	"madplay":    buildMadplay,
	"untoast":    buildUntoast,
	"sha":        buildSha,
	"bitcnts":    buildBitcnts,
	"say":        buildSay,
	"rijndael_d": buildRijndaelD,
	"crc":        buildCrc,
	"rijndael_e": buildRijndaelE,
	"search":     buildSearch,
}

// paperOrder is the Figure 4 x-axis ordering (ascending median headroom).
var paperOrder = []string{
	"qsort", "rawcaudio", "tiff2rgba", "gs", "djpeg", "patricia",
	"basicmath", "lout", "fft_i", "fft", "susan_s", "susan_c",
	"tiffmedian", "ispell", "pgp", "tiffdither", "bf_e", "bf_d",
	"rawdaudio", "pgp_sa", "tiff2bw", "cjpeg", "lame", "dijkstra",
	"susan_e", "toast", "madplay", "untoast", "sha", "bitcnts",
	"say", "rijndael_d", "crc", "rijndael_e", "search",
}

// Names returns all program names in the paper's Figure 4 order.
func Names() []string {
	return append([]string(nil), paperOrder...)
}

// Build constructs the named program's IR module.
func Build(name string) (*ir.Module, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("prog: %w: %q", pcerr.ErrUnknownProgram, name)
	}
	return f().Build()
}

// Known reports whether name is in the benchmark suite, without building it.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// MustBuild is Build panicking on unknown names or definition bugs.
func MustBuild(name string) *ir.Module {
	m, err := Build(name)
	if err != nil {
		panic(err)
	}
	return m
}

// seedFor derives the deterministic builder seed from the program name.
func seedFor(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h
}

// Working-set size shorthands (bytes).
const (
	wTiny   = 1 << 10  // 1 KiB: registers' worth of state, stack-ish
	wSmall  = 4 << 10  // 4 KiB: lookup tables
	wMedium = 32 << 10 // 32 KiB: frames, dictionaries
	wLarge  = 256 << 10
	wHuge   = 1 << 20 // 1 MiB: large image inputs
)
