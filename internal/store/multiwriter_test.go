// The multi-writer suite: the package doc promises that entry files are
// safe to share across processes (commits are atomic renames, reads
// validate), and they are the store's only state, rebuilt by the scan
// at Open. These tests drive two open handles on one directory - the
// in-process stand-in for two portccd daemons sharing a cache mount -
// through interleaved Put/Get/evict/quarantine traffic and assert
// membership correctness after reopen.
package store

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// present returns the key set a fresh handle would rebuild from the
// directory's entry files.
func present(t *testing.T, dir string) map[Key]bool {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[Key]bool{}
	for _, de := range des {
		name, ok := strings.CutSuffix(de.Name(), entrySuffix)
		if !ok || de.IsDir() {
			continue
		}
		raw, err := hex.DecodeString(name)
		if err != nil || len(raw) != len(Key{}) {
			// Not key-shaped; skip like rebuild does.
			continue
		}
		out[Key(raw)] = true
	}
	return out
}

// TestMultiWriterMembershipAfterReopen interleaves two writers over one
// directory, then reopens with a third handle and asserts its index
// matches the entry files exactly: every committed key readable with
// the right bytes, nothing phantom, nothing lost.
func TestMultiWriterMembershipAfterReopen(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, Options{Dir: dir})
	b := mustOpen(t, Options{Dir: dir})

	const n = 30
	var wg sync.WaitGroup
	for w, s := range []*Store{a, b} {
		wg.Add(1)
		go func(w int, s *Store) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for i := 0; i < n; i++ {
				k := i
				if w == 1 {
					k = n - 1 - i // opposite order: maximal interleave
				}
				s.Put(keyN(k), payloadN(k%40))
				if g := rng.Intn(n); true {
					if got, ok, err := s.Get(keyN(g)); ok && err == nil && !bytes.Equal(got, payloadN(g%40)) {
						t.Errorf("writer %d: key %d served wrong bytes", w, g)
					}
				}
			}
		}(w, s)
	}
	wg.Wait()
	a.Close()
	b.Close()

	c := mustOpen(t, Options{Dir: dir})
	st := c.Stats()
	if st.Entries != n {
		t.Fatalf("reopen found %d entries, want %d", st.Entries, n)
	}
	for i := 0; i < n; i++ {
		got, ok, err := c.Get(keyN(i))
		if !ok || err != nil {
			t.Fatalf("key %d after reopen: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(got, payloadN(i%40)) {
			t.Fatalf("key %d after reopen: wrong bytes", i)
		}
	}
}

// TestMultiWriterEvictQuarantineInterleave mixes the destructive paths:
// one budgeted handle evicting while the other quarantines corrupted
// entries and keeps writing. Every surviving entry file must be
// readable with exact bytes from both handles and from a fresh reopen;
// a key one handle evicted or quarantined is a clean miss on the other.
func TestMultiWriterEvictQuarantineInterleave(t *testing.T) {
	dir := t.TempDir()
	entryBytes := 100 + int64(entryOverhead)
	a := mustOpen(t, Options{Dir: dir, Budget: 8 * entryBytes})
	b := mustOpen(t, Options{Dir: dir})

	const n = 40
	for i := 0; i < n; i++ {
		s := a
		if i%2 == 1 {
			s = b
		}
		if err := s.Put(keyN(i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
		// Every fourth entry committed by b is corrupted on disk and
		// then read through a, exercising cross-handle quarantine.
		if i%4 == 3 {
			path := filepath.Join(dir, keyN(i).String()+entrySuffix)
			if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := a.Get(keyN(i)); ok {
				t.Fatalf("corrupted key %d served: err=%v", i, err)
			}
		}
	}

	// Both live handles and a fresh reopen agree with the directory.
	for name, s := range map[string]*Store{"a": a, "b": b, "fresh": mustOpen(t, Options{Dir: dir})} {
		disk := present(t, dir)
		for i := 0; i < n; i++ {
			got, ok, err := s.Get(keyN(i))
			if err != nil {
				t.Fatalf("%s: key %d: unexpected error %v", name, i, err)
			}
			if ok && !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 100)) {
				t.Fatalf("%s: key %d: wrong bytes", name, i)
			}
			if ok && !disk[keyN(i)] {
				t.Fatalf("%s: key %d served but absent from the directory", name, i)
			}
		}
	}
	if st := a.Stats(); st.Evictions == 0 {
		t.Fatalf("budgeted handle never evicted: %+v", st)
	}
	if st := a.Stats(); st.Corrupt == 0 {
		t.Fatalf("cross-handle corruption never quarantined: %+v", st)
	}
}

// TestMultiWriterConcurrentChurn is the load test: two handles, one
// budgeted, hammering overlapping key ranges with Put/Get churn from
// several goroutines each. The invariant is the store's core promise -
// any successful Get returns exactly the bytes of that key's Put, and
// nothing ends corrupt.
func TestMultiWriterConcurrentChurn(t *testing.T) {
	dir := t.TempDir()
	entryBytes := 130 + int64(entryOverhead)
	a := mustOpen(t, Options{Dir: dir, Budget: 15 * entryBytes})
	b := mustOpen(t, Options{Dir: dir, Budget: 15 * entryBytes})

	var wg sync.WaitGroup
	for w, s := range []*Store{a, b} {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(w, g int, s *Store) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w*10 + g)))
				for i := 0; i < 60; i++ {
					k := rng.Intn(30)
					if rng.Intn(2) == 0 {
						s.Put(keyN(k), payloadN(k))
					} else if got, ok, err := s.Get(keyN(k)); ok && err == nil && !bytes.Equal(got, payloadN(k)) {
						t.Errorf("writer %d/%d: key %d served wrong bytes", w, g, k)
					}
				}
			}(w, g, s)
		}
	}
	wg.Wait()
	for name, s := range map[string]*Store{"a": a, "b": b} {
		if st := s.Stats(); st.Corrupt != 0 {
			t.Fatalf("%s: corruption under multi-writer churn: %+v", name, st)
		}
	}
	a.Close()
	b.Close()
	c := mustOpen(t, Options{Dir: dir})
	disk := present(t, dir)
	if st := c.Stats(); st.Entries != len(disk) {
		t.Fatalf("reopen index %d entries, directory holds %d", st.Entries, len(disk))
	}
	for k := range disk {
		if _, ok, err := c.Get(k); !ok || err != nil {
			t.Fatalf("surviving entry %s: ok=%v err=%v", k, ok, err)
		}
	}
}
