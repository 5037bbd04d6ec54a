package bpred

import "testing"

func TestColdPredictsNotTaken(t *testing.T) {
	b := MustNew(64, 1)
	if b.Predict(0x8000) {
		t.Error("BTB miss must predict not-taken (fall-through fetch)")
	}
}

func TestLearnsTakenLoop(t *testing.T) {
	b := MustNew(64, 1)
	pc := uint32(0x8000)
	mis := 0
	for i := 0; i < 100; i++ {
		pred := b.Predict(pc)
		if b.Resolve(pc, pred, true) {
			mis++
		}
	}
	// First iteration mispredicts (cold), then the 2-bit counter holds.
	if mis > 2 {
		t.Errorf("%d mispredicts on an always-taken branch, want <=2", mis)
	}
}

func TestHysteresis(t *testing.T) {
	b := MustNew(64, 1)
	pc := uint32(0x8000)
	// Saturate taken.
	for i := 0; i < 4; i++ {
		b.Resolve(pc, b.Predict(pc), true)
	}
	// One not-taken blip must not flip the prediction (2-bit counter).
	b.Resolve(pc, b.Predict(pc), false)
	if !b.Predict(pc) {
		t.Error("single not-taken must not flip a saturated counter")
	}
}

func TestAliasingEviction(t *testing.T) {
	// 2 entries x 1 way: plenty of branches must alias.
	b := MustNew(2, 1)
	pcs := []uint32{0x8000, 0x8008, 0x8010, 0x8018}
	for i := 0; i < 50; i++ {
		for _, pc := range pcs {
			b.Resolve(pc, b.Predict(pc), true)
		}
	}
	if b.Mispredicts() == 0 {
		t.Error("4 always-taken branches in a 2-entry BTB must mispredict via aliasing")
	}
}

func TestAssociativityHelps(t *testing.T) {
	run := func(entries, assoc int) uint64 {
		b := MustNew(entries, assoc)
		// Two branches mapping to the same set in the direct-mapped case.
		pcs := []uint32{0x8000, 0x8000 + 2*4}
		_ = pcs
		pcA := uint32(0x8000)
		pcB := pcA + uint32(entries/assoc)*4 // same set index
		for i := 0; i < 60; i++ {
			b.Resolve(pcA, b.Predict(pcA), true)
			b.Resolve(pcB, b.Predict(pcB), true)
		}
		return b.Mispredicts()
	}
	direct := run(4, 1)
	assoc := run(4, 4)
	if assoc >= direct {
		t.Errorf("associativity should reduce conflict mispredicts: %d vs %d", assoc, direct)
	}
}

func TestNotTakenBranchesNotAllocated(t *testing.T) {
	b := MustNew(64, 1)
	pc := uint32(0x8000)
	for i := 0; i < 10; i++ {
		pred := b.Predict(pc)
		if b.Resolve(pc, pred, false) {
			t.Error("never-taken branch mispredicted")
		}
	}
	if b.Hits() != 0 {
		t.Error("never-taken branches must not occupy BTB entries")
	}
}

func TestGeometryErrors(t *testing.T) {
	for _, g := range [][2]int{{0, 1}, {3, 1}, {8, 3}, {-2, 1}, {12, 4}} {
		if _, err := New(g[0], g[1]); err == nil {
			t.Errorf("geometry %v accepted", g)
		}
		if CheckGeometry(g[0], g[1]) == nil {
			t.Errorf("geometry %v passes CheckGeometry", g)
		}
	}
}

// TestCheckGeometryAllocatesNothing pins the check the batched replay
// runs per BTB geometry: a good geometry costs no allocation.
func TestCheckGeometryAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if err := CheckGeometry(2048, 8); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("CheckGeometry allocates %.1f times per call, want 0", allocs)
	}
}

func TestReshapeReusesAndResets(t *testing.T) {
	b := MustNew(2048, 8)
	b.Resolve(0x8000, b.Predict(0x8000), true)
	if err := b.Reshape(64, 1); err != nil {
		t.Fatal(err)
	}
	if b.Lookups() != 0 || b.Mispredicts() != 0 {
		t.Error("reshape must clear statistics")
	}
	if b.Predict(0x8000) {
		t.Error("reshape must clear counters")
	}
	if err := b.Reshape(8, 3); err == nil {
		t.Error("bad geometry accepted by Reshape")
	}
}

func TestPoolRoundTrip(t *testing.T) {
	b, err := Get(128, 2)
	if err != nil {
		t.Fatal(err)
	}
	b.Resolve(0x8000, b.Predict(0x8000), true)
	Put(b)
	c, err := Get(128, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer Put(c)
	if c.Lookups() != 0 || c.Predict(0x8000) {
		t.Error("pooled BTB must come back fully reset")
	}
	if _, err := Get(6, 2); err == nil {
		t.Error("bad geometry accepted by Get")
	}
}

func TestReset(t *testing.T) {
	b := MustNew(16, 2)
	b.Resolve(0x8000, b.Predict(0x8000), true)
	b.Reset()
	if b.Lookups() != 0 || b.Mispredicts() != 0 {
		t.Error("reset must clear statistics")
	}
	if b.Predict(0x8000) {
		t.Error("reset must clear counters")
	}
}
