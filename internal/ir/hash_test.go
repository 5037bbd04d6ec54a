package ir

import (
	"reflect"
	"testing"

	"portcc/internal/isa"
)

// hashFixture builds a module with one instance of every hashed type
// and no empty slice, so every field has something to mutate.
func hashFixture() *Module {
	return &Module{
		Name:  "m",
		Entry: 0,
		Funcs: []*Func{{
			Name: "f", ID: 0, NextReg: 3, Layout: []int{0}, Align: 4, FrameSize: 8,
			Blocks: []*Block{{
				ID: 0, Align: 2, Preds: []int{0}, LoopDepth: 1,
				Insns: []Insn{{Op: isa.OpLoad, Def: 1, Use: [2]Reg{2, 0}, Imm: 4, Callee: -1,
					Mem: MemRef{Stream: 1, Kind: MemSeq, WSet: 64, Stride: 4}}},
				Term: Term{Kind: TermBranch, Taken: 0, Fall: 0, Prob: 0.25, Trip: 3, CondReg: 1, Site: 7},
			}},
		}},
	}
}

// mutate changes v, a settable value of any kind the hashed structs
// hold, to something different; nested structs are covered by their
// own type's pass and skipped here.
func mutate(t *testing.T, v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1e-9)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		elem := reflect.Zero(v.Type().Elem())
		if elem.Kind() == reflect.Pointer {
			elem = reflect.New(v.Type().Elem().Elem())
		}
		v.Set(reflect.Append(v, elem))
	case reflect.Struct:
		return false
	default:
		t.Fatalf("no mutation for kind %s: extend mutate and AppendModule together", v.Kind())
	}
	return true
}

// TestHashCoversFields mutates every exported field of every IR type in
// turn - array fields element by element - and requires the module hash
// to move: a field added to the IR later cannot be left out of
// AppendModule silently.
func TestHashCoversFields(t *testing.T) {
	base := hashFixture().Hash()
	if hashFixture().Hash() != base {
		t.Fatal("hash of identical modules differs")
	}
	targets := map[string]func(*Module) any{
		"Module": func(m *Module) any { return m },
		"Func":   func(m *Module) any { return m.Funcs[0] },
		"Block":  func(m *Module) any { return m.Funcs[0].Blocks[0] },
		"Term":   func(m *Module) any { return &m.Funcs[0].Blocks[0].Term },
		"Insn":   func(m *Module) any { return &m.Funcs[0].Blocks[0].Insns[0] },
		"MemRef": func(m *Module) any { return &m.Funcs[0].Blocks[0].Insns[0].Mem },
	}
	for name, at := range targets {
		typ := reflect.TypeOf(at(hashFixture())).Elem()
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			n := 1
			if f.Type.Kind() == reflect.Array {
				n = f.Type.Len()
			}
			for e := 0; e < n; e++ {
				m := hashFixture()
				v := reflect.ValueOf(at(m)).Elem().Field(i)
				if f.Type.Kind() == reflect.Array {
					v = v.Index(e)
				}
				if mutate(t, v) && m.Hash() == base {
					t.Errorf("%s.%s (element %d) is not in the module hash", name, f.Name, e)
				}
			}
		}
	}
}

// TestHashSeparatesWhatStringRounds pins why String cannot be the
// identity: probabilities that print alike and stream geometry String
// omits must hash apart.
func TestHashSeparatesWhatStringRounds(t *testing.T) {
	a, b := hashFixture(), hashFixture()
	b.Funcs[0].Blocks[0].Term.Prob = 0.2501
	b.Funcs[0].Blocks[0].Insns[0].Mem.Stride = 8
	if a.String() != b.String() {
		t.Fatal("fixture no longer shows String's blind spots")
	}
	if a.Hash() == b.Hash() {
		t.Fatal("hash ignores what String ignores")
	}
}
