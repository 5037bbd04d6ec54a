package portcc

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"portcc/internal/codegen"
	"portcc/internal/uarch"
)

// TestSingleRunsNeverTouchTheStore: the result store belongs to the
// sweep. A session built WithResultStore answers every single-run
// method with exactly a storeless session's values and leaves the
// store's ledger at zero, while its GenerateDataset still commits. On
// either session, five -O3 Runs over five architectures cost one
// compile, two trace generations (the probe and the resident trace) and
// five per-event simulations.
func TestSingleRunsNeverTouchTheStore(t *testing.T) {
	ctx := context.Background()
	scale := Scale{Name: "t", Programs: []string{"crc", "bitcnts"},
		NumArchs: 3, NumOpts: 4, TargetInsns: 4000, Seed: 5}
	rs, err := OpenResultStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	plain := NewSession(WithScale(scale))
	stored := NewSession(WithScale(scale), WithResultStore(rs))
	archs := uarch.Space{}.SampleN(rand.New(rand.NewSource(7)), 5)
	tuned := O3()
	tuned.Flags[FScheduleInsns] = false

	ds, err := plain.GenerateDataset(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	model, err := TrainModel(ds)
	if err != nil {
		t.Fatal(err)
	}

	// answers is everything the single-run methods say on one session.
	type answers struct {
		runs      []RunResult
		cycles    float64
		speedup   float64
		image     codegen.Fingerprint
		result    RunResult
		imSpeedup float64
		predicted OptConfig
	}
	ask := func(s *Session) (a answers) {
		for _, arch := range archs {
			r, err := s.Run(ctx, "crc", O3(), arch)
			if err != nil {
				t.Fatal(err)
			}
			a.runs = append(a.runs, r)
		}
		if st := s.ev.Stats(); st.Compiles != 1 || st.TraceGens != 2 || st.Simulations != len(archs) {
			t.Errorf("ledger %+v after %d -O3 Runs, want 1 compile, 2 generations (probe + resident trace), %d simulations",
				st, len(archs), len(archs))
		}
		if a.cycles, err = s.CyclesPerRun(ctx, "crc", tuned, archs[0]); err != nil {
			t.Fatal(err)
		}
		if a.speedup, err = s.Speedup(ctx, "crc", tuned, archs[1]); err != nil {
			t.Fatal(err)
		}
		bin, res, sp, err := s.CompileAndRun(ctx, "bitcnts", tuned, archs[2])
		if err != nil {
			t.Fatal(err)
		}
		a.image, _ = codegen.FingerprintInto(bin, nil)
		a.result, a.imSpeedup = res, sp
		if a.predicted, err = s.OptimizeFor(ctx, "bitcnts", archs[3], model); err != nil {
			t.Fatal(err)
		}
		return a
	}
	want, got := ask(plain), ask(stored)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the store-backed session answers %+v, the storeless one %+v", got, want)
	}
	if s := rs.Stats(); s.Hits != 0 || s.Misses != 0 || s.Puts != 0 {
		t.Errorf("single runs touched the store: %+v", s)
	}

	again, err := stored.GenerateDataset(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if s := rs.Stats(); s.Puts == 0 {
		t.Errorf("GenerateDataset committed nothing: %+v", s)
	}
	a, errA := ds.Fingerprint()
	b, errB := again.Fingerprint()
	if errA != nil || errB != nil || a != b {
		t.Errorf("store-backed dataset %.12s (%v), storeless %.12s (%v)", b, errB, a, errA)
	}
}
