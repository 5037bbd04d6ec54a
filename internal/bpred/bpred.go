// Package bpred models the XScale branch prediction hardware: a tagged,
// set-associative branch target buffer whose entries carry 2-bit saturating
// counters. A branch that misses in the BTB is predicted not-taken
// (fall-through fetch); a hit predicts according to the counter.
package bpred

import (
	"fmt"
	"sync"
)

// BTB is the branch target buffer. Not safe for concurrent use.
type BTB struct {
	tags     []uint32
	ctr      []uint8 // 2-bit saturating counter per entry
	used     []uint64
	assoc    int
	setMask  uint32
	setBits  uint32
	stamp    uint64
	lookups  uint64
	hits     uint64
	predTkn  uint64
	mispreds uint64
}

// New builds a BTB with the given entry count and associativity (both
// powers of two, entries divisible by assoc).
func New(entries, assoc int) (*BTB, error) {
	b := &BTB{}
	if err := b.Reshape(entries, assoc); err != nil {
		return nil, err
	}
	return b, nil
}

// CheckGeometry reports whether a BTB of the given entry count and
// associativity can be built: both powers of two, entries divisible by
// assoc. It allocates nothing unless the geometry is bad.
func CheckGeometry(entries, assoc int) error {
	if entries <= 0 || assoc <= 0 || entries%assoc != 0 {
		return fmt.Errorf("bpred: bad geometry entries=%d assoc=%d", entries, assoc)
	}
	for _, v := range [...]int{entries, assoc, entries / assoc} {
		if v&(v-1) != 0 {
			return fmt.Errorf("bpred: geometry %d not a power of two", v)
		}
	}
	return nil
}

// Reshape reconfigures the BTB to the given geometry in place, reusing the
// backing arrays when they are large enough, and clears all contents and
// statistics. It is the allocation-free path for pooled reuse across
// simulations of different microarchitectures.
func (b *BTB) Reshape(entries, assoc int) error {
	if err := CheckGeometry(entries, assoc); err != nil {
		return err
	}
	sets := entries / assoc
	if cap(b.tags) >= entries && cap(b.ctr) >= entries && cap(b.used) >= entries {
		b.tags = b.tags[:entries]
		b.ctr = b.ctr[:entries]
		b.used = b.used[:entries]
		for i := range b.tags {
			b.tags[i] = 0
			b.ctr[i] = 0
			b.used[i] = 0
		}
	} else {
		b.tags = make([]uint32, entries)
		b.ctr = make([]uint8, entries)
		b.used = make([]uint64, entries)
	}
	b.assoc = assoc
	b.setMask = uint32(sets - 1)
	b.setBits = log2u(uint32(sets))
	b.stamp, b.lookups, b.hits, b.predTkn, b.mispreds = 0, 0, 0, 0, 0
	return nil
}

// pool recycles BTBs across simulations; see cache.Get for the idea.
var pool = sync.Pool{New: func() any { return new(BTB) }}

// Get returns a pooled BTB reshaped to the given geometry.
func Get(entries, assoc int) (*BTB, error) {
	b := pool.Get().(*BTB)
	if err := b.Reshape(entries, assoc); err != nil {
		pool.Put(b)
		return nil, err
	}
	return b, nil
}

// Put returns a BTB obtained from Get to the pool. The BTB must not be used
// after Put.
func Put(b *BTB) {
	if b != nil {
		pool.Put(b)
	}
}

// MustNew is New panicking on error.
func MustNew(entries, assoc int) *BTB {
	b, err := New(entries, assoc)
	if err != nil {
		panic(err)
	}
	return b
}

func log2u(v uint32) uint32 {
	var n uint32
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Predict performs the fetch-time BTB lookup for the branch at pc and
// returns the predicted direction.
func (b *BTB) Predict(pc uint32) bool {
	b.lookups++
	idx := pc >> 2 // word-aligned instructions
	set := idx & b.setMask
	tag := (idx >> b.setBits) + 1 // +1 so 0 means invalid, collision-free
	base := int(set) * b.assoc
	for i := base; i < base+b.assoc; i++ {
		if b.tags[i] == tag {
			b.hits++
			taken := b.ctr[i] >= 2
			if taken {
				b.predTkn++
			}
			return taken
		}
	}
	return false // BTB miss: fall-through fetch
}

// Resolve records the actual outcome of the branch at pc, updating counters
// and allocating an entry on taken branches (as the XScale BTB does), and
// reports whether the earlier prediction pred was wrong.
func (b *BTB) Resolve(pc uint32, pred, taken bool) bool {
	idx := pc >> 2
	set := idx & b.setMask
	tag := (idx >> b.setBits) + 1
	base := int(set) * b.assoc
	b.stamp++
	slot := -1
	victim := base
	oldest := b.used[base]
	for i := base; i < base+b.assoc; i++ {
		if b.tags[i] == tag {
			slot = i
			break
		}
		if b.used[i] < oldest {
			oldest = b.used[i]
			victim = i
		}
	}
	if slot >= 0 {
		if taken {
			if b.ctr[slot] < 3 {
				b.ctr[slot]++
			}
		} else if b.ctr[slot] > 0 {
			b.ctr[slot]--
		}
		b.used[slot] = b.stamp
	} else if taken {
		// Allocate on taken: initialise weakly taken.
		b.tags[victim] = tag
		b.ctr[victim] = 2
		b.used[victim] = b.stamp
	}
	if pred != taken {
		b.mispreds++
		return true
	}
	return false
}

// Lookups returns the number of Predict calls.
func (b *BTB) Lookups() uint64 { return b.lookups }

// Hits returns the number of BTB tag hits.
func (b *BTB) Hits() uint64 { return b.hits }

// Mispredicts returns the number of wrong predictions recorded by Resolve.
func (b *BTB) Mispredicts() uint64 { return b.mispreds }

// Reset clears contents and statistics.
func (b *BTB) Reset() {
	for i := range b.tags {
		b.tags[i] = 0
		b.ctr[i] = 0
		b.used[i] = 0
	}
	b.stamp, b.lookups, b.hits, b.predTkn, b.mispreds = 0, 0, 0, 0, 0
}
