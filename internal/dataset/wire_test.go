package dataset

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"portcc/internal/cpu"
	"portcc/internal/opt"
	"portcc/internal/pcerr"
	"portcc/internal/prog"
	"portcc/internal/uarch"
	"portcc/internal/wire"
)

// The result codec is what a shard streams back.
var _ wire.Appender = ExploreResult{}

// TestShardedResultsEqualLocal: one request run in-process and through
// two shard daemons yields the same results, field for field - each
// one crossed the wire in AppendWire's layout and was rebuilt against
// the coordinator's request.
func TestShardedResultsEqualLocal(t *testing.T) {
	req := tinyRequest(t, 7)
	local := collect(t, req, ExploreOptions{Workers: 2})
	a1, _ := startShard(t, ServeConfigStore(1, 0, 100*time.Millisecond, nil))
	a2, _ := startShard(t, ServeConfigStore(1, 0, 100*time.Millisecond, nil))
	sharded := collect(t, req, ExploreOptions{Shards: []string{a1, a2}})
	if len(local) != req.Cells() {
		t.Fatalf("local run yielded %d cells, want %d", len(local), req.Cells())
	}
	if !reflect.DeepEqual(local, sharded) {
		t.Fatal("sharded results differ from the local run's")
	}
}

// TestDecodeWireRejectsForeignResults: bytes that are not the named
// cell's result - another cell's, a run count of zero, counters for
// another architecture count, trailing or missing bytes - fail with
// pcerr.ErrShardFailure; the cell's own bytes decode to its result.
func TestDecodeWireRejectsForeignResults(t *testing.T) {
	req := wireRequest()
	res := wireResult(&req, 3)
	good := res.AppendWire(nil)
	back, err := req.decodeWire(3, good)
	if err != nil || !reflect.DeepEqual(back, res) {
		t.Fatalf("own bytes: got %+v, %v; want %+v", back, err, res)
	}
	zeroRuns := res
	zeroRuns.Runs = 0
	short := res
	short.Results = res.Results[:1]
	for name, tc := range map[string]struct {
		index int
		b     []byte
	}{
		"another cell":      {4, good},
		"outside the grid":  {req.Cells(), good},
		"negative index":    {-1, good},
		"zero runs":         {3, zeroRuns.AppendWire(nil)},
		"too few archs":     {3, short.AppendWire(nil)},
		"trailing bytes":    {3, append(bytes.Clone(good), 0)},
		"truncated":         {3, good[:len(good)-1]},
		"shorter than head": {3, good[:wireHead-1]},
	} {
		if _, err := req.decodeWire(tc.index, tc.b); !errors.Is(err, pcerr.ErrShardFailure) {
			t.Errorf("%s: got %v, want ErrShardFailure", name, err)
		}
	}
}

// TestPaperJobFitsFrameCap sizes wire.MaxFrame against the largest
// legitimate frame: the Job of the paper's protocol (all programs, 1 000
// sampled settings plus -O3, 200 architectures of the extended space)
// must fit with wide headroom, as must one of its results.
func TestPaperJobFitsFrameCap(t *testing.T) {
	req, err := GenConfig{Programs: prog.Names(), NumArchs: 200, NumOpts: 1000, Extended: true, Seed: 11}.Request()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	c := wire.NewConn(&buf)
	if err := c.Send(&wire.Frame{Job: &wire.Job{Spec: req}}); err != nil {
		t.Fatal(err)
	}
	job := buf.Len()
	buf.Reset()
	res := ExploreResult{Runs: 1, Results: make([]cpu.Result, len(req.Archs))}
	if err := c.Send(&wire.Frame{Result: &wire.Result{Payload: res}}); err != nil {
		t.Fatal(err)
	}
	t.Logf("paper-scale job frame %d bytes, result frame %d bytes, cap %d", job, buf.Len(), wire.MaxFrame)
	if 16*job > wire.MaxFrame {
		t.Errorf("a paper-scale job frame of %d bytes leaves under 16x headroom below the %d-byte cap", job, wire.MaxFrame)
	}
}

// wireRequest is the fixed grid the codec tests decode against: two
// programs, three settings, three architectures.
func wireRequest() ExploreRequest {
	rng := rand.New(rand.NewSource(5))
	return ExploreRequest{
		Programs: []string{"crc", "qsort"},
		Archs:    (uarch.Space{}).SampleN(rng, 3),
		Opts:     []opt.Config{opt.O3(), opt.Random(rng), opt.Random(rng)},
		Eval:     EvalConfig{TargetInsns: 4_000, Seed: 1},
	}
}

// wireResult is a plausible result for cell index of req, every counter
// distinct.
func wireResult(req *ExploreRequest, index int) ExploreResult {
	c := req.cell(index)
	res := ExploreResult{
		ProgIndex: c.prog, OptIndex: c.opt,
		Program: req.Programs[c.prog], Config: req.Opts[c.opt],
		Runs:    3,
		Results: make([]cpu.Result, len(req.Archs)),
	}
	for i := range res.Results {
		v := uint64(100*index + 10*i)
		res.Results[i] = cpu.Result{Cycles: v + 1, Insns: v + 2, DCMisses: v + 3, BranchStalls: v + 4,
			EnergyNJ: float64(v) / 3, Config: req.Archs[i]}
	}
	return res
}

// sameResult compares two results with their energies by bit pattern,
// so a NaN off the wire equals itself.
func sameResult(a, b ExploreResult) bool {
	if len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		x, y := a.Results[i], b.Results[i]
		if math.Float64bits(x.EnergyNJ) != math.Float64bits(y.EnergyNJ) {
			return false
		}
		x.EnergyNJ, y.EnergyNJ = 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	a.Results, b.Results = nil, nil
	return reflect.DeepEqual(a, b)
}

// FuzzExploreResultWire feeds arbitrary bytes, as a received wire.Raw,
// to the coordinator's decoder for a fixed request: the outcome is
// pcerr.ErrShardFailure, or a result whose round trip through
// AppendWire and decodeWire is itself - and whose encoding is the input,
// byte for byte.
func FuzzExploreResultWire(f *testing.F) {
	req := wireRequest()
	for i := range req.Cells() {
		f.Add(uint8(i), wireResult(&req, i).AppendWire(nil))
	}
	good := wireResult(&req, 2).AppendWire(nil)
	f.Add(uint8(3), good)
	f.Add(uint8(2), good[:len(good)-8])
	f.Add(uint8(2), append(bytes.Clone(good), 1))
	f.Fuzz(func(t *testing.T, index uint8, raw []byte) {
		i := int(index)%(req.Cells()+2) - 1
		res, err := req.decodeWire(i, wire.Raw(raw))
		if err != nil {
			if !errors.Is(err, pcerr.ErrShardFailure) {
				t.Fatalf("cell %d: untyped error %v", i, err)
			}
			return
		}
		again := res.AppendWire(nil)
		if !bytes.Equal(again, raw) {
			t.Fatalf("cell %d: accepted %x, re-encodes as %x", i, raw, again)
		}
		back, err := req.decodeWire(i, again)
		if err != nil {
			t.Fatalf("cell %d: round trip refused: %v", i, err)
		}
		if !sameResult(res, back) {
			t.Fatalf("cell %d: round trip changed the result", i)
		}
		c := req.cell(i)
		if res.Program != req.Programs[c.prog] || res.Config != req.Opts[c.opt] {
			t.Fatalf("cell %d: program or setting not the request's", i)
		}
		for a := range res.Results {
			if res.Results[a].Config != req.Archs[a] {
				t.Fatalf("cell %d arch %d: configuration not the request's", i, a)
			}
		}
	})
}

// TestDecodeRequestRefuses: a spec is one JSON object of ExploreRequest's
// fields, nothing more - a field this build does not know, trailing
// bytes or a value out of its type's range fail with
// pcerr.ErrInvalidConfig - and the coordinator's spec decodes to the
// request it was encoded from.
func TestDecodeRequestRefuses(t *testing.T) {
	req := wireRequest()
	good := req.AppendWire(nil)
	if back, err := decodeRequest(good); err != nil || !reflect.DeepEqual(back, req) {
		t.Fatalf("own spec: got %+v, %v; want %+v", back, err, req)
	}
	for name, b := range map[string][]byte{
		"unknown field":   []byte(`{"Programs":["crc"],"RunID":"r-1"}`),
		"trailing bytes":  append(bytes.Clone(good), '{'),
		"second object":   append(bytes.Clone(good), good...),
		"level past u8":   []byte(`{"Opts":[{"Params":[256]}]}`),
		"not an object":   []byte(`["crc"]`),
		"truncated":       good[:len(good)-1],
		"empty":           nil,
		"program integer": []byte(`{"Programs":[7]}`),
	} {
		if _, err := decodeRequest(b); !errors.Is(err, pcerr.ErrInvalidConfig) {
			t.Errorf("%s: got %v, want ErrInvalidConfig", name, err)
		}
	}
}

// TestDecodeRequestAllocation: a spec of many empty elements - each 3
// bytes of input, up to 80 bytes decoded - stays within the fuzzer's
// allocation bound at sizes the fuzzer does not reach, because slices
// are allocated once at their counted length instead of grown.
func TestDecodeRequestAllocation(t *testing.T) {
	for _, field := range []string{"Programs", "Opts", "Archs"} {
		elem := "{}"
		if field == "Programs" {
			elem = `""`
		}
		b := []byte(`{"` + field + `":[` + strings.Repeat(elem+",", 99_999) + elem + `]}`)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		req, err := decodeRequest(b)
		runtime.ReadMemStats(&ms)
		if err != nil || len(req.Programs)+len(req.Opts)+len(req.Archs) != 100_000 {
			t.Fatalf("%s: decoded %d+%d+%d elements, error %v; want 100 000", field, len(req.Programs), len(req.Opts), len(req.Archs), err)
		}
		if used, limit := ms.TotalAlloc-before, uint64(64*len(b)+specDecodeSlack); used > limit {
			t.Errorf("%s: decoding %d bytes allocated %d, over %d", field, len(b), used, limit)
		}
	}
}

// specDecodeSlack is decodeRequest's fixed allocation, whatever the
// input: the JSON decoder, its buffer and scanner, the request.
const specDecodeSlack = 16 << 10

// FuzzExploreRequestWire feeds arbitrary bytes, as a job spec off the
// wire, to the daemon's decoder: the outcome is pcerr.ErrInvalidConfig,
// or a request whose AppendWire decodes back to itself. Decoding
// allocates within 64x the input plus a constant, whatever slice lengths
// the input implies.
func FuzzExploreRequestWire(f *testing.F) {
	// Small seeds: minimising an interesting input costs time quadratic
	// in its length, which a paper-sized spec would spend the run on.
	req := ExploreRequest{Programs: []string{"crc"}, Opts: []opt.Config{opt.O3()},
		Archs: []uarch.Config{uarch.XScale()}, Eval: EvalConfig{Seed: 1}}
	f.Add(req.AppendWire(nil))
	req.Naive, req.Programs = true, []string{}
	f.Add(req.AppendWire(nil))
	f.Add(ExploreRequest{}.AppendWire(nil))
	f.Add([]byte(`{"programs":["crc"],"Archs":[{},{},{}],"Opts":[{"Params":[1,2]}]}`))
	f.Add([]byte(`{"Archs":[{}],"Archs":[{},{}],"Archs":null}`))
	f.Add([]byte(`{"Programs":["a,]\"[", "{,}"], "Eval": {"Seed": -3}} `))
	f.Add(append(req.AppendWire(nil), '{'))
	f.Add([]byte(`{"Programs":["crc"],"RunID":"r-1"}`))
	f.Add([]byte(`{"Opts":[{"Params":[256]}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		got, err := decodeRequest(b)
		runtime.ReadMemStats(&ms)
		if used, limit := ms.TotalAlloc-before, uint64(64*len(b)+specDecodeSlack); used > limit {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(b), used, limit)
		}
		if err != nil {
			if !errors.Is(err, pcerr.ErrInvalidConfig) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		again := got.AppendWire(nil)
		back, err := decodeRequest(again)
		if err != nil {
			t.Fatalf("re-encoded spec %s refused: %v", again, err)
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("spec %s decodes as %+v, re-encoded as %+v", b, got, back)
		}
	})
}
