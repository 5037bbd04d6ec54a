package trace_test

import (
	"portcc/internal/codegen"
	"portcc/internal/ir"
	"portcc/internal/isa"
	"portcc/internal/trace"
)

// generateReference is the generator as it was before block bodies were
// pre-decoded: it walks the IR instructions of the image one at a time,
// re-deriving operands, address patterns and call targets on every
// execution, with its cursors in maps keyed by stream, latch block and
// branch site. It is the oracle the micro-op generator must match event
// for event and counter for counter.
func generateReference(p *codegen.Program, cfg trace.Config) *trace.Trace {
	if cfg.MaxInsns <= 0 {
		cfg.MaxInsns = 100_000
	}
	g := &refGen{
		prog:     p,
		seed:     refSplitmix(uint64(cfg.Seed) ^ 0x9e3779b97f4a7c15),
		tr:       &trace.Trace{},
		max:      cfg.MaxInsns,
		wantRuns: cfg.Runs,
		cursor:   map[int32]uint32{},
		count:    map[int32]uint64{},
		trips:    map[*codegen.BlockImage]int32{},
		sites:    map[int32]uint64{},
	}
	for i := range g.lastIdx {
		g.lastIdx[i] = -1 << 60
	}
	g.run()
	if g.wantRuns > 0 && g.tr.Runs < g.wantRuns {
		g.tr.Truncated = true
		g.tr.Runs++
	}
	// The static bounds come from the placed blocks themselves.
	g.tr.Code = trace.Code{Lo: codegen.CodeBase, Hi: codegen.CodeBase, CondSites: []uint32{}}
	for _, fi := range p.Funcs {
		g.tr.Code.Hi = max(g.tr.Code.Hi, fi.Addr+uint32(fi.Bytes))
		for _, bi := range fi.Blocks {
			if bi.Term.Kind == ir.TermBranch {
				g.tr.Code.CondSites = append(g.tr.Code.CondSites, bi.BranchAddr)
			}
		}
	}
	return g.tr
}

type refRet struct {
	fi         *codegen.FuncImage
	bpos, ipos int
}

type refGen struct {
	prog     *codegen.Program
	seed     uint64
	tr       *trace.Trace
	max      int
	wantRuns int

	cursor map[int32]uint32 // per stream: next sequential offset
	count  map[int32]uint64 // per stream: accesses (random-address hash)
	trips  map[*codegen.BlockImage]int32
	sites  map[int32]uint64

	lastIdx  [isa.NumRegs + 1]int64
	lastLoad [isa.NumRegs + 1]bool
	lastLat  [isa.NumRegs + 1]uint8

	dyn       int64
	callStack []refRet
}

func refSplitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func refHashFloat(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

func (g *refGen) full() bool {
	if len(g.tr.Events) >= g.max {
		return true
	}
	return g.wantRuns > 0 && g.tr.Runs >= g.wantRuns
}

func (g *refGen) run() {
	fi := g.prog.Entry()
	bpos, ipos := 0, 0
	fellThrough := false
	none := trace.NoDist

	for !g.full() {
		bi := fi.Blocks[bpos]
		if ipos == 0 && fellThrough && bi.Pad > 0 {
			padBase := bi.Addr - uint32(bi.Pad)
			for k := 0; k < bi.Pad/isa.InsnBytes && !g.full(); k++ {
				g.emit(trace.Event{PC: padBase + uint32(k*isa.InsnBytes),
					Op: uint8(isa.OpNop), DistLoad: none, DistFU: none})
			}
		}
		fellThrough = false

		calledInto := false
		for ipos < len(bi.Insns) && !g.full() {
			in := &bi.Insns[ipos]
			pc := bi.Addr + uint32(ipos*isa.InsnBytes)
			ipos++
			if in.Op == isa.OpCall {
				callee := g.prog.FuncOf(int(in.Callee))
				ev := trace.Event{PC: pc, Addr: callee.Addr, Op: uint8(isa.OpCall),
					Flags: trace.FlagTaken, DistLoad: none, DistFU: none}
				g.depends(&ev, in)
				g.emit(ev)
				if !in.HasFlag(ir.FlagTailCall) {
					g.callStack = append(g.callStack, refRet{fi, bpos, ipos})
				}
				fi, bpos, ipos = callee, 0, 0
				calledInto = true
				break
			}
			g.step(pc, in)
		}
		if calledInto || g.full() {
			continue
		}

		switch bi.Term.Kind {
		case ir.TermRet:
			g.emit(trace.Event{PC: bi.JumpAddr, Op: uint8(isa.OpRet),
				Flags: trace.FlagTaken, DistLoad: none, DistFU: none})
			if len(g.callStack) == 0 {
				g.tr.Restarts++
				g.tr.Runs++
				fi, bpos, ipos = g.prog.Entry(), 0, 0
				continue
			}
			rs := g.callStack[len(g.callStack)-1]
			g.callStack = g.callStack[:len(g.callStack)-1]
			fi, bpos, ipos = rs.fi, rs.bpos, rs.ipos
			continue

		case ir.TermFall, ir.TermJump:
			target := bi.Term.Fall
			if bi.Term.Kind == ir.TermJump {
				target = bi.Term.Taken
			}
			npos := fi.ByID[target].Pos
			if bi.HasJump {
				g.emit(trace.Event{PC: bi.JumpAddr, Addr: fi.Blocks[npos].Addr,
					Op: uint8(isa.OpJump), Flags: trace.FlagTaken, DistLoad: none, DistFU: none})
			} else {
				fellThrough = true
			}
			bpos, ipos = npos, 0

		case ir.TermBranch:
			taken := g.decide(bi)
			target := bi.Term.Fall
			if taken {
				target = bi.Term.Taken
			}
			npos := fi.ByID[target].Pos
			var redirects bool
			if bi.HasJump {
				redirects = taken
			} else {
				redirects = taken != bi.Inverted
			}
			flags := trace.FlagCond
			if redirects {
				flags |= trace.FlagTaken
			}
			ev := trace.Event{PC: bi.BranchAddr, Addr: fi.Blocks[npos].Addr,
				Op: uint8(isa.OpBranch), Flags: flags, DistLoad: none, DistFU: none}
			if bi.Term.CondReg != ir.RegNone {
				g.useDep(&ev, bi.Term.CondReg)
				g.tr.RegReads++
			}
			g.emit(ev)
			if bi.HasJump && !taken {
				g.emit(trace.Event{PC: bi.JumpAddr, Addr: fi.Blocks[npos].Addr,
					Op: uint8(isa.OpJump), Flags: trace.FlagTaken, DistLoad: none, DistFU: none})
			} else if !redirects {
				fellThrough = true
			}
			bpos, ipos = npos, 0
		}
	}
}

func (g *refGen) decide(bi *codegen.BlockImage) bool {
	t := bi.Term
	if t.Trip > 0 {
		c := g.trips[bi] + 1
		if c >= t.Trip {
			g.trips[bi] = 0
			return false
		}
		g.trips[bi] = c
		return true
	}
	if t.Prob <= 0 {
		return false
	}
	if t.Prob >= 1 {
		return true
	}
	if t.InvariantIn > 0 {
		h := refSplitmix(g.seed ^ uint64(uint32(t.Site))<<20 ^ uint64(g.tr.Runs))
		return refHashFloat(h) < t.Prob
	}
	n := g.sites[t.Site]
	g.sites[t.Site] = n + 1
	h := refSplitmix(g.seed ^ uint64(uint32(t.Site))<<20 ^ n)
	return refHashFloat(h) < t.Prob
}

func (g *refGen) step(pc uint32, in *ir.Insn) {
	ev := trace.Event{PC: pc, Op: uint8(in.Op), DistLoad: trace.NoDist, DistFU: trace.NoDist}
	g.depends(&ev, in)
	if in.Op.IsMem() {
		ev.Addr = g.address(in)
		if in.Mem.Kind == ir.MemPointer && in.Op == isa.OpLoad {
			ev.DistLoad = 1
		}
	}
	g.emit(ev)
	if in.Def != ir.RegNone {
		r := refFold(in.Def)
		g.lastIdx[r] = g.dyn - 1
		g.lastLoad[r] = in.Op == isa.OpLoad
		g.lastLat[r] = uint8(in.Op.Latency())
		g.tr.RegWrites++
	}
}

func (g *refGen) depends(ev *trace.Event, in *ir.Insn) {
	for _, u := range in.Use {
		if u == ir.RegNone {
			continue
		}
		g.useDep(ev, u)
		g.tr.RegReads++
	}
}

func refFold(r ir.Reg) int {
	i := int(r)
	if i > isa.NumRegs {
		i = 1 + (i % isa.NumRegs)
	}
	return i
}

func (g *refGen) useDep(ev *trace.Event, u ir.Reg) {
	r := refFold(u)
	d := g.dyn - g.lastIdx[r]
	if d <= 0 || d > 254 {
		return
	}
	if d == 1 {
		ev.Flags |= trace.FlagDepPrev
	}
	if g.lastLoad[r] {
		if uint8(d) < ev.DistLoad {
			ev.DistLoad = uint8(d)
		}
	} else if g.lastLat[r] > 1 {
		if uint8(d) < ev.DistFU {
			ev.DistFU = uint8(d)
			ev.FULat = g.lastLat[r]
		}
	}
}

func (g *refGen) address(in *ir.Insn) uint32 {
	m := in.Mem
	base := codegen.StreamBase(m.Stream)
	if in.HasFlag(ir.FlagSpill) || in.HasFlag(ir.FlagSave) || in.HasFlag(ir.FlagPrologue) {
		return base + uint32(in.Imm)*4
	}
	w := uint32(m.WSet)
	switch m.Kind {
	case ir.MemSeq, ir.MemStrided:
		cur := g.cursor[m.Stream]
		a := base + cur
		cur += uint32(m.Stride)
		if cur >= w {
			cur = 0
		}
		g.cursor[m.Stream] = cur
		return a
	case ir.MemScalar:
		return base
	default:
		n := g.count[m.Stream] + 1
		g.count[m.Stream] = n
		h := refSplitmix(g.seed ^ uint64(uint32(m.Stream))<<32 ^ n)
		return base + (uint32(h)%w)&^3
	}
}

func (g *refGen) emit(ev trace.Event) {
	g.tr.Events = append(g.tr.Events, ev)
	g.dyn++
	op := isa.Op(ev.Op)
	g.tr.OpCount[op]++
	if op.IsMem() {
		g.tr.MemOps++
	}
	if ev.Flags&trace.FlagCond != 0 {
		g.tr.Branches++
	}
}
