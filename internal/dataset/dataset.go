package dataset

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"

	"portcc/internal/features"
	"portcc/internal/ml"
	"portcc/internal/opt"
	"portcc/internal/pcerr"
	"portcc/internal/uarch"
)

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

// FormatVersion is the dataset file layout version. Bump it whenever
// the layout changes, or features.Dim; Load refuses other versions
// with ErrDatasetVersion. Result-store keys hash it too.
const FormatVersion = 2

// fileMagic opens a dataset file.
const fileMagic = "portcc-dataset"

// fileHead is a dataset file's fixed start: magic, version and the
// lengths of the two JSON documents after it - Cfg, and the programs,
// settings, architectures and Cfg.Eval as an ExploreRequest's
// AppendWire bytes. Then come the speedups (float32), the features
// (features.Dim each), the baseline cycles and the run counts (u64), in
// index order. Every number is little-endian, a float as its IEEE bits.
type fileHead struct {
	Magic     [len(fileMagic)]byte
	Version   uint64
	Cfg, Spec uint64
}

// appendFile appends the dataset's file to b. A dataset whose arrays
// disagree with its counts has no such file: ErrInvalidConfig.
func (d *Dataset) appendFile(b []byte) ([]byte, error) {
	nP, nA, nO := d.Dims()
	sRows, ok1 := flat(d.Speedups, nP, nA)
	speedups, ok2 := flat(sRows, nP*nA, nO)
	fRows, ok3 := flat(d.Features, nP, nA)
	feats, ok4 := flat(fRows, nP*nA, features.Dim)
	base, ok5 := flat(d.BaselineCycles, nP, nA)
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || len(d.Runs) != nP {
		return nil, fmt.Errorf("dataset: %w: arrays disagree with %d programs x %d archs x %d settings", pcerr.ErrInvalidConfig, nP, nA, nO)
	}
	cfg, _ := json.Marshal(d.Cfg) // strings, ints and a bool: it cannot fail
	spec := ExploreRequest{Programs: d.Programs, Opts: d.Opts, Archs: d.Archs, Eval: d.Cfg.Eval}.AppendWire(nil)
	h := fileHead{[len(fileMagic)]byte([]byte(fileMagic)), FormatVersion, uint64(len(cfg)), uint64(len(spec))}
	for _, x := range []any{&h, cfg, spec, speedups, feats, base} {
		b, _ = binary.Append(b, binary.LittleEndian, x) // fixed-size values: it cannot fail
	}
	for _, r := range d.Runs {
		b = binary.LittleEndian.AppendUint64(b, uint64(r))
	}
	return b, nil
}

// flat returns rows end to end, and whether they are n rows of width w.
func flat[T any](rows [][]T, n, w int) ([]T, bool) {
	out := make([]T, 0, n*w)
	for _, r := range rows {
		if len(r) != w {
			return nil, false
		}
		out = append(out, r...)
	}
	return out, len(rows) == n
}

// Save writes the dataset file (see fileHead).
func (d *Dataset) Save(path string) error {
	b, err := d.appendFile(nil)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o666)
}

// Fingerprint returns the hex sha256 of the bytes Save writes. Model
// artifacts embed it so a trained model is traceable to the exact
// dataset it was fitted on, and consumers can verify a dataset/artifact
// pairing before mixing them.
func (d *Dataset) Fingerprint() (string, error) {
	b, err := d.appendFile(nil)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Describe returns a one-line canonical description of the generation
// config, embedded in model artifacts for human inspection.
func (cfg GenConfig) Describe() string {
	return fmt.Sprintf("%d programs x %d archs x %d opts, extended=%v, seed=%d, eval={target=%d max=%d seed=%d}",
		len(cfg.Programs), cfg.NumArchs, cfg.NumOpts, cfg.Extended, cfg.Seed,
		cfg.Eval.TargetInsns, cfg.Eval.MaxInsns, cfg.Eval.Seed)
}

// Load reads a dataset written by Save. A file of another layout - a
// version 1 (gob) dataset, another version, a foreign file - fails with
// ErrDatasetVersion, a malformed one with ErrInvalidConfig.
func Load(path string) (*Dataset, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := decode(b)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	return d, nil
}

// decode reads a dataset file. The JSON documents decode within
// decodeRequest's bound, and the counts they give must account for every
// later byte before anything is allocated for them, so a decode
// allocates within a multiple of len(b); an accepted b is exactly what
// appendFile writes for the dataset it returns.
func decode(b []byte) (*Dataset, error) {
	var h fileHead
	le := binary.LittleEndian
	n, err := binary.Decode(b, le, &h)
	if err != nil || string(h.Magic[:]) != fileMagic {
		return nil, fmt.Errorf("not a version %d dataset file (a version 1 gob, or foreign): %w", FormatVersion, pcerr.ErrDatasetVersion)
	}
	if h.Version != FormatVersion {
		return nil, fmt.Errorf("file version %d, this build reads version %d: %w", h.Version, FormatVersion, pcerr.ErrDatasetVersion)
	}
	b = b[n:]
	if h.Cfg > uint64(len(b)) || h.Spec > uint64(len(b))-h.Cfg {
		return nil, fmt.Errorf("%w: %d+%d bytes of JSON in a %d-byte body", pcerr.ErrInvalidConfig, h.Cfg, h.Spec, len(b))
	}
	cfg, spec := b[:h.Cfg], b[h.Cfg:h.Cfg+h.Spec]
	d := &Dataset{}
	req, err := decodeRequest(spec)
	err = errors.Join(err, json.Unmarshal(cfg, &d.Cfg))
	again, _ := json.Marshal(d.Cfg) // as in appendFile
	if err != nil || req.Naive || !bytes.Equal(again, cfg) || !bytes.Equal(req.AppendWire(nil), spec) {
		return nil, fmt.Errorf("%w: config or spec is not canonical JSON (%v)", pcerr.ErrInvalidConfig, err)
	}
	// Each (program, arch) holds its speedups, features and baseline,
	// each program its run count.
	nP, nA, nO := len(req.Programs), len(req.Archs), len(req.Opts)
	b = b[h.Cfg+h.Spec:]
	cell := 4*nO + 8*features.Dim + 8
	if nA == 0 || nO == 0 || nA > len(b)/cell || nP > len(b)/(nA*cell+8) || nP*(nA*cell+8) != len(b) {
		return nil, fmt.Errorf("%w: %d programs x %d archs x %d settings in a %d-byte body", pcerr.ErrInvalidConfig, nP, nA, nO, len(b))
	}
	// What the layout cannot check: every name and configuration lies
	// inside its space, as Generate checked.
	if err := req.Validate(); err != nil {
		return nil, err
	}
	d.Programs, d.Archs, d.Opts, d.Runs = req.Programs, req.Archs, req.Opts, make([]int, nP)
	speedups, feats, base := make([]float32, nP*nA*nO), make([]float64, nP*nA*features.Dim), make([]float64, nP*nA)
	for _, x := range []any{speedups, feats, base} {
		n, _ := binary.Decode(b, le, x) // the length check left room
		b = b[n:]
	}
	for p := range d.Runs {
		d.Runs[p] = int(le.Uint64(b[8*p:]))
	}
	d.Speedups, d.Features, d.BaselineCycles = grid(speedups, nP, nA, nO), grid(feats, nP, nA, features.Dim), rows(base, nP, nA)
	return d, nil
}

// rows cuts flat into n rows of width w, each capped at its end.
func rows[T any](flat []T, n, w int) [][]T {
	out := make([][]T, n)
	for i := range out {
		out[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

// grid cuts flat into n blocks of m rows of width w.
func grid[T any](flat []T, n, m, w int) [][][]T { return rows(rows(flat, n*m, w), n, m) }
