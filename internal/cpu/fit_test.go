package cpu

import (
	"fmt"
	"testing"

	"portcc/internal/isa"
	"portcc/internal/trace"
	"portcc/internal/uarch"
)

// loopTrace walks a code range of lines 32-byte lines from 0x8000 one
// instruction at a time, reps times, jumping back at the end. Each PC of
// sites is a conditional branch, taken to the next instruction - so
// every site allocates a BTB entry. The trace declares exactly that
// range and those sites.
func loopTrace(lines, reps int, sites []uint32) *trace.Trace {
	const lo = 0x8000
	hi := uint32(lo + 32*lines)
	tr := &trace.Trace{Runs: 1, Code: trace.Code{Lo: lo, Hi: hi, CondSites: sites}}
	isSite := map[uint32]bool{}
	for _, pc := range sites {
		isSite[pc] = true
	}
	for r := 0; r < reps; r++ {
		for pc := uint32(lo); pc < hi; pc += isa.InsnBytes {
			ev := trace.Event{PC: pc, Op: uint8(isa.OpALU), DistLoad: trace.NoDist, DistFU: trace.NoDist}
			switch {
			case isSite[pc]:
				ev.Op, ev.Flags = uint8(isa.OpBranch), trace.FlagCond|trace.FlagTaken
				tr.Branches++
			case pc == hi-isa.InsnBytes:
				ev.Op, ev.Flags = uint8(isa.OpJump), trace.FlagTaken
			}
			tr.Events = append(tr.Events, ev)
			tr.OpCount[ev.Op]++
		}
	}
	return tr
}

// TestNoEvictionBoundary pins fact 6 at its boundary. A code range of
// exactly min-assoc lines per set skips the IL1 stack and one line more
// simulates it; a BTB set holding exactly assoc conditional-branch sites
// joins the shared no-eviction group and one site more keeps its own
// sweep. Every case matches Simulate bit for bit - sequential and at
// four workers - and the replay's fitCounts must show the shortcut
// firing exactly where it may, so a disabled shortcut fails here. Past
// the boundary the structure really evicts: misses exceed the distinct
// lines, or mispredicts differ from those of a geometry that fits, so a
// shortcut firing there would be caught by the comparison with Simulate.
func TestNoEvictionBoundary(t *testing.T) {
	type geom struct{ size, assoc int }
	// With 32-byte lines: 4K/4 and 8K/8 share one 32-set stack (128
	// lines fit), 16K/4 is a 128-set stack (512 lines fit) and 64K/64 a
	// 32-set one (2048 lines fit), so 513 lines leave a chain whose
	// coarser stack is skipped and whose finer one is simulated.
	il1Cases := []struct {
		name    string
		geoms   []geom
		lines   int
		skipped int
		evicts  int // index into geoms of a member that evicts, or -1
	}{
		{"two members at 32 sets, exactly 4 lines per set", []geom{{4 << 10, 4}, {8 << 10, 8}}, 128, 3, -1},
		{"two members at 32 sets, 5 lines in a set", []geom{{4 << 10, 4}, {8 << 10, 8}}, 129, 2, 0},
		{"32 and 128 sets, both fit", []geom{{64 << 10, 64}, {16 << 10, 4}}, 512, 4, -1},
		{"32 and 128 sets, the finer overflows", []geom{{64 << 10, 64}, {16 << 10, 4}}, 513, 3, 1},
	}
	// Two more 32 KiB IL1s with 16- and 64-byte lines fit every case
	// (the skip counts above include them) and give the shared BTB group
	// three fetch streams to feed in the parallel waves. 128x2 has 64
	// sets: sites 256 bytes apart share one. 2048x8 (256 sets) holds
	// either list, so it shares in both cases.
	btbGeoms := []geom{{128, 2}, {2048, 8}}
	btbCases := []struct {
		name   string
		sites  int
		shared int
	}{
		{"exactly 2 sites in a 2-way set", 2, 2},
		{"3 sites in a 2-way set", 3, 1},
	}
	for _, ic := range il1Cases {
		for _, bc := range btbCases {
			name := fmt.Sprintf("%s; %s", ic.name, bc.name)
			var sites []uint32
			for k := 0; k < bc.sites; k++ {
				sites = append(sites, 0x8000+12+uint32(k)*256)
			}
			tr := loopTrace(ic.lines, 4, sites)
			var archs []uarch.Config // IL1 geometry, then BTB, then width
			for _, g := range ic.geoms {
				for _, b := range btbGeoms {
					for _, width := range []int{1, 2} {
						cfg := uarch.XScale()
						cfg.IL1Size, cfg.IL1Assoc = g.size, g.assoc
						cfg.BTBSize, cfg.BTBAssoc = b.size, b.assoc
						cfg.Width = width
						archs = append(archs, cfg)
					}
				}
			}
			for _, block := range []int{16, 64} {
				cfg := uarch.XScale()
				cfg.IL1Block = block
				cfg.BTBSize, cfg.BTBAssoc = btbGeoms[1].size, btbGeoms[1].assoc
				archs = append(archs, cfg)
			}
			batch, _, fits := simulateBatch(tr, archs, 1, nil)
			if fits.il1Stacks != ic.skipped {
				t.Errorf("%s: %d IL1 stacks skipped, want %d", name, fits.il1Stacks, ic.skipped)
			}
			if fits.btbGeoms != bc.shared {
				t.Errorf("%s: %d BTB geometries shared, want %d", name, fits.btbGeoms, bc.shared)
			}
			par := SimulateBatchWith(tr, archs, 4)
			for i, cfg := range archs {
				want := Simulate(tr, cfg)
				for _, got := range []struct {
					how string
					r   Result
				}{{"batch", batch[i]}, {"4 workers", par[i]}} {
					if got.r != want {
						t.Fatalf("%s: config %s, %s:\n  got %+v\n want %+v", name, cfg.String(), got.how, got.r, want)
					}
				}
			}
			if ic.evicts >= 0 {
				if r := batch[4*ic.evicts]; r.ICMisses <= uint64(ic.lines) {
					t.Errorf("%s: the overflowing member misses %d times on %d lines: the case has no teeth", name, r.ICMisses, ic.lines)
				}
			}
			if bc.shared == 1 && batch[0].Mispredicts == batch[2].Mispredicts {
				t.Errorf("%s: the overflowing BTB mispredicts like one that fits (%d): the case has no teeth", name, batch[0].Mispredicts)
			}
		}
	}
}
