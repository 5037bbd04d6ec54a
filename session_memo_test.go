package portcc

import (
	"context"
	"errors"
	"testing"
)

// TestBaselineFailuresNotMemoised: a failed -O3 baseline leaves no memo
// entry - program names come from outside, so failures must not grow the
// memo - while a good one is kept, once.
func TestBaselineFailuresNotMemoised(t *testing.T) {
	ctx := context.Background()
	s := NewSession(WithScale(Scale{Name: "t", Programs: []string{"crc"},
		NumArchs: 1, NumOpts: 1, TargetInsns: 4000, Seed: 5}))
	entries := func() int {
		n := 0
		s.baseline.Range(func(any, any) bool { n++; return true })
		return n
	}
	for range 2 {
		if _, err := s.Speedup(ctx, "no-such-program", O3(), XScale()); !errors.Is(err, ErrUnknownProgram) {
			t.Fatalf("unknown program: got %v, want ErrUnknownProgram", err)
		}
	}
	if n := entries(); n != 0 {
		t.Errorf("%d memo entries after two failed baselines, want 0", n)
	}
	for range 2 {
		if _, err := s.Speedup(ctx, "crc", O3(), XScale()); err != nil {
			t.Fatal(err)
		}
	}
	if n := entries(); n != 1 {
		t.Errorf("%d memo entries after two good baselines, want 1", n)
	}
}
