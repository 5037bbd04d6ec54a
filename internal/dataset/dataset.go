package dataset

import (
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"

	"portcc/internal/features"
	"portcc/internal/ml"
	"portcc/internal/opt"
	"portcc/internal/pcerr"
	"portcc/internal/uarch"
)

// Gob allocates wire type ids from a process-global counter in order of
// first use, so a process that pushed frames over the shard wire before
// saving would write different (yet equivalent) type descriptors than a
// purely local one. Pinning the file schema's ids at init - before main
// can touch any other gob stream - keeps Save byte-for-byte
// deterministic across coordinator, worker and local processes, so
// "bit-identical dataset" stays checkable with a plain file compare.
func init() {
	enc := gob.NewEncoder(io.Discard)
	enc.Encode(fileHeader{})
	enc.Encode(&Dataset{})
}

// GenConfig describes a dataset to generate.
type GenConfig struct {
	// Programs to include (prog.Names() when empty).
	Programs []string
	// NumArchs microarchitectures sampled uniformly (paper: 200).
	NumArchs int
	// NumOpts optimisation settings sampled uniformly (paper: 1000);
	// the -O3 baseline is always included as index 0.
	NumOpts int
	// Extended selects the Section 7 space (frequency and issue width).
	Extended bool
	// Seed drives all sampling.
	Seed int64
	// Eval carries the workload-scaling parameters.
	Eval EvalConfig
}

// Dataset is the generated training data.
type Dataset struct {
	Cfg      GenConfig
	Programs []string
	Archs    []uarch.Config
	// Opts[0] is -O3; the rest are uniform random samples.
	Opts []opt.Config
	// Speedups[p][a][o] = cycles(O3)/cycles(Opts[o]) for program p on
	// architecture a. Speedups[p][a][0] == 1 by construction.
	Speedups [][][]float32
	// Features[p][a] is x=(c,d) measured from the -O3 run (Section 3.4).
	Features [][][]float64
	// BaselineCycles[p][a] is cycles-per-run of the -O3 binary, the
	// denominator for evaluating configurations outside the sample.
	BaselineCycles [][]float64
	// Runs[p] is the complete-run count used for program p's traces.
	Runs []int
}

// Request converts the generation config into the exploration work grid
// it expands to: -O3 plus the sampled optimisation settings of every
// program, replayed over the sampled architectures.
func (cfg GenConfig) Request() (ExploreRequest, error) {
	if len(cfg.Programs) == 0 {
		return ExploreRequest{}, fmt.Errorf("dataset: %w: no programs", pcerr.ErrInvalidConfig)
	}
	if cfg.NumArchs <= 0 || cfg.NumOpts <= 0 {
		return ExploreRequest{}, fmt.Errorf("dataset: %w: NumArchs and NumOpts must be positive", pcerr.ErrInvalidConfig)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	space := uarch.Space{Extended: cfg.Extended}
	req := ExploreRequest{
		Programs: append([]string(nil), cfg.Programs...),
		Archs:    space.SampleN(rng, cfg.NumArchs),
		Opts:     make([]opt.Config, 0, cfg.NumOpts+1),
		Eval:     cfg.Eval,
	}
	req.Opts = append(req.Opts, opt.O3())
	optRng := rand.New(rand.NewSource(cfg.Seed + 1))
	seen := map[string]bool{req.Opts[0].Key(): true}
	for len(req.Opts) < cfg.NumOpts+1 {
		c := opt.Random(optRng)
		if k := c.Key(); !seen[k] {
			seen[k] = true
			req.Opts = append(req.Opts, c)
		}
	}
	if err := req.Validate(); err != nil {
		return ExploreRequest{}, err
	}
	return req, nil
}

// Generate produces the dataset, parallelising across (program, setting)
// cells; each compiled trace is replayed over every architecture. It
// honours ctx: on cancellation the worker pool drains and the error wraps
// ctx.Err() with partial-progress counts.
func Generate(ctx context.Context, cfg GenConfig) (*Dataset, error) {
	return GenerateWith(ctx, cfg, ExploreOptions{})
}

// GenerateWith is Generate with explicit execution options (worker count,
// progress callback). It is a thin consumer of the streaming Explore
// engine: the grid cells arrive in completion order and are folded into
// the dataset arrays, with speedups derived once the stream completes.
func GenerateWith(ctx context.Context, cfg GenConfig, o ExploreOptions) (*Dataset, error) {
	req, err := cfg.Request()
	if err != nil {
		return nil, err
	}
	ds := &Dataset{
		Cfg:      cfg,
		Programs: req.Programs,
		Archs:    req.Archs,
		Opts:     req.Opts,
	}
	nP, nA, nO := len(ds.Programs), len(ds.Archs), len(ds.Opts)
	ds.Speedups = make([][][]float32, nP)
	ds.Features = make([][][]float64, nP)
	ds.BaselineCycles = make([][]float64, nP)
	ds.Runs = make([]int, nP)
	for p := range ds.Speedups {
		ds.Speedups[p] = make([][]float32, nA)
		ds.Features[p] = make([][]float64, nA)
		ds.BaselineCycles[p] = make([]float64, nA)
		for a := range ds.Speedups[p] {
			ds.Speedups[p][a] = make([]float32, nO)
		}
	}
	// Cells arrive in completion order, so raw cycles are buffered until
	// a program's grid is complete, then folded into speedups and freed:
	// peak extra memory is bounded by the programs in flight, not the
	// whole nP x nA x nO cube.
	cyc := make([][][]float64, nP)
	remaining := make([]int, nP)
	for p := range remaining {
		remaining[p] = nO // one cell per setting
	}
	for res, err := range Explore(ctx, req, o) {
		if err != nil {
			return nil, err
		}
		p := res.ProgIndex
		if cyc[p] == nil {
			cyc[p] = make([][]float64, nA)
			for a := range cyc[p] {
				cyc[p][a] = make([]float64, nO)
			}
		}
		for a := range res.Results {
			r := &res.Results[a]
			c := float64(r.Cycles) / float64(res.Runs)
			cyc[p][a][res.OptIndex] = c
			if res.OptIndex == 0 {
				ds.Features[p][a] = features.Vector(ds.Archs[a], r)
				ds.BaselineCycles[p][a] = c
				ds.Runs[p] = res.Runs
			}
		}
		if remaining[p]--; remaining[p] == 0 {
			for a := range cyc[p] {
				ds.Speedups[p][a][0] = 1
				for o := 1; o < nO; o++ {
					ds.Speedups[p][a][o] = float32(cyc[p][a][0] / cyc[p][a][o])
				}
			}
			cyc[p] = nil
		}
	}
	return ds, nil
}

// Dims returns the program, architecture and setting counts.
func (d *Dataset) Dims() (programs, archs, opts int) {
	return len(d.Programs), len(d.Archs), len(d.Opts)
}

// BestSpeedup returns the maximum speedup over -O3 found by the sampled
// settings for pair (p, a) - the paper's iterative-compilation "Best".
func (d *Dataset) BestSpeedup(p, a int) (float64, int) {
	best, bestO := float64(d.Speedups[p][a][0]), 0
	for o, s := range d.Speedups[p][a] {
		if float64(s) > best {
			best, bestO = float64(s), o
		}
	}
	return best, bestO
}

// TrainingPairs converts the dataset into fitted ML training pairs:
// for each (program, architecture), the good set (top 5%) is selected and
// the IID distribution fitted (Section 3.3.1).
func (d *Dataset) TrainingPairs() ([]ml.TrainingPair, error) {
	var pairs []ml.TrainingPair
	for p := range d.Programs {
		for a := range d.Archs {
			sp := make([]float64, len(d.Opts))
			for o, s := range d.Speedups[p][a] {
				sp[o] = float64(s)
			}
			good := ml.TopGood(d.Opts, sp)
			g, err := ml.FitGood(good)
			if err != nil {
				return nil, fmt.Errorf("dataset: pair (%s, arch %d): %w", d.Programs[p], a, err)
			}
			pairs = append(pairs, ml.TrainingPair{
				Prog: d.Programs[p],
				Arch: a,
				X:    d.Features[p][a],
				G:    g,
			})
		}
	}
	return pairs, nil
}

// FormatVersion is the dataset file schema version. Bump it whenever the
// gob layout of Dataset (or anything it embeds) changes incompatibly;
// Load refuses mismatching files with ErrDatasetVersion instead of
// surfacing a confusing mid-stream gob decode error. Work units shipped
// between shards carry the same header.
const FormatVersion = 1

// fileMagic identifies a versioned portcc dataset file.
const fileMagic = "portcc-dataset"

// fileHeader precedes the dataset in the gob stream.
type fileHeader struct {
	Magic   string
	Version int
}

// Save writes the dataset with gob encoding, prefixed by a schema-version
// header.
func (d *Dataset) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return d.encode(f)
}

// encode writes the canonical file byte stream: header, then dataset.
func (d *Dataset) encode(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(fileHeader{Magic: fileMagic, Version: FormatVersion}); err != nil {
		return err
	}
	return enc.Encode(d)
}

// Fingerprint returns the hex sha256 of the dataset's canonical Save
// byte stream - identical to hashing a file written by Save, without
// touching disk. Model artifacts embed it so a trained model is
// traceable to the exact dataset it was fitted on, and consumers can
// verify a dataset/artifact pairing before mixing them.
func (d *Dataset) Fingerprint() (string, error) {
	h := sha256.New()
	if err := d.encode(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Describe returns a one-line canonical description of the generation
// config, embedded in model artifacts for human inspection.
func (cfg GenConfig) Describe() string {
	return fmt.Sprintf("%d programs x %d archs x %d opts, extended=%v, seed=%d, eval={target=%d max=%d seed=%d}",
		len(cfg.Programs), cfg.NumArchs, cfg.NumOpts, cfg.Extended, cfg.Seed,
		cfg.Eval.TargetInsns, cfg.Eval.MaxInsns, cfg.Eval.Seed)
}

// Load reads a dataset written by Save. Files without a matching header -
// pre-versioning datasets, foreign files, or datasets from a different
// schema version - fail with an error wrapping ErrDatasetVersion.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := gob.NewDecoder(f)
	var h fileHeader
	// A pre-versioning or foreign gob stream either fails to decode into
	// the header or decodes with the wrong magic; both surface as
	// version mismatches, with the decode cause preserved for diagnosis
	// (a truncated file or I/O error is visible there, not hidden).
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("dataset: %s: no version header (pre-versioning or foreign file): %w (%w)", path, pcerr.ErrDatasetVersion, err)
	}
	if h.Magic != fileMagic {
		return nil, fmt.Errorf("dataset: %s: no version header (pre-versioning or foreign file): %w", path, pcerr.ErrDatasetVersion)
	}
	if h.Version != FormatVersion {
		return nil, fmt.Errorf("dataset: %s: file version %d, this build reads version %d: %w",
			path, h.Version, FormatVersion, pcerr.ErrDatasetVersion)
	}
	var d Dataset
	if err := dec.Decode(&d); err != nil {
		return nil, err
	}
	if err := d.validate(); err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	return &d, nil
}

// validate checks that a decoded file's arrays agree with one another
// and that every configuration lies inside its space. Gob checks types,
// not shapes: without this a truncated-and-re-encoded, hand-edited or
// foreign-build file indexes out of range in TrainingPairs or ml.FitGood
// long after Load returned nil. The generate path builds the arrays from
// one request and never needs it.
func (d *Dataset) validate() error {
	nP, nA, nO := d.Dims()
	if nO < 1 {
		return fmt.Errorf("%w: no optimisation settings", pcerr.ErrInvalidConfig)
	}
	if len(d.Speedups) != nP || len(d.Features) != nP || len(d.BaselineCycles) != nP || len(d.Runs) != nP {
		return fmt.Errorf("%w: %d speedup, %d feature, %d baseline and %d run-count rows for %d programs",
			pcerr.ErrInvalidConfig, len(d.Speedups), len(d.Features), len(d.BaselineCycles), len(d.Runs), nP)
	}
	for a, c := range d.Archs {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("arch %d: %w", a, err)
		}
	}
	for o := range d.Opts {
		if err := d.Opts[o].Validate(); err != nil {
			return fmt.Errorf("setting %d: %w", o, err)
		}
	}
	for p := 0; p < nP; p++ {
		if len(d.Speedups[p]) != nA || len(d.Features[p]) != nA || len(d.BaselineCycles[p]) != nA {
			return fmt.Errorf("%w: program %d: %d speedup, %d feature and %d baseline rows for %d architectures",
				pcerr.ErrInvalidConfig, p, len(d.Speedups[p]), len(d.Features[p]), len(d.BaselineCycles[p]), nA)
		}
		for a := 0; a < nA; a++ {
			if len(d.Speedups[p][a]) != nO {
				return fmt.Errorf("%w: program %d, arch %d: %d speedups for %d settings",
					pcerr.ErrInvalidConfig, p, a, len(d.Speedups[p][a]), nO)
			}
			if len(d.Features[p][a]) != features.Dim {
				return fmt.Errorf("%w: program %d, arch %d: feature vector of length %d, want %d",
					pcerr.ErrInvalidConfig, p, a, len(d.Features[p][a]), features.Dim)
			}
		}
	}
	return nil
}
