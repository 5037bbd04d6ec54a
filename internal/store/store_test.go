package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"portcc/internal/faultfs"
	"portcc/internal/pcerr"
)

func mustOpen(t *testing.T, o Options) *Store {
	t.Helper()
	s, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func keyN(n int) Key { return KeyOf([]byte(fmt.Sprintf("key-%d", n))) }

func payloadN(n int) []byte {
	return bytes.Repeat([]byte{byte(n)}, 100+n)
}

// TestPutGetRoundtrip pins the basic contract: a committed payload
// reads back byte-identical, an unknown key is a clean miss.
func TestPutGetRoundtrip(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	if err := s.Put(keyN(1), payloadN(1)); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(keyN(1))
	if err != nil || !ok || !bytes.Equal(got, payloadN(1)) {
		t.Fatalf("get: %v %v %q", ok, err, got)
	}
	if _, ok, err := s.Get(keyN(2)); ok || err != nil {
		t.Fatalf("miss returned ok=%v err=%v", ok, err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestReopenServesEntries proves persistence: a fresh Store over the
// same directory serves the previous process's commits.
func TestReopenServesEntries(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 5; i++ {
		if err := s.Put(keyN(i), payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2 := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 5; i++ {
		got, ok, err := s2.Get(keyN(i))
		if err != nil || !ok || !bytes.Equal(got, payloadN(i)) {
			t.Fatalf("entry %d after reopen: %v %v", i, ok, err)
		}
	}
	if st := s2.Stats(); st.Entries != 5 {
		t.Fatalf("reopened with %d entries, want 5", st.Entries)
	}
}

// TestStaleJournalIgnored opens a directory in the layout of the builds
// that kept a recency journal: entry files plus an index.log holding
// garbage lines, a delete record for a live key and a key with no file.
// Budgeted or not, the store serves every entry and no phantom, leaves
// the journal as it found it, and never creates one itself.
func TestStaleJournalIgnored(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 3; i++ {
		if err := s.Put(keyN(i), payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Get(keyN(0))
	s.Close()
	journal := filepath.Join(dir, "index.log")
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Fatalf("the store created %s: %v", journal, err)
	}
	stale := []byte(fmt.Sprintf("p %s\np %s\nGARBAGE LINE\np not-hex\nt %s\nd %s\n", keyN(0), keyN(99), keyN(2), keyN(1)))
	if err := os.WriteFile(journal, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	for round, budget := range []int64{0, 1 << 20} {
		s2 := mustOpen(t, Options{Dir: dir, Budget: budget})
		// Each round commits one more entry than the last found.
		if st := s2.Stats(); st.Entries != 3+round {
			t.Fatalf("budget %d: reopened with %d entries, want %d", budget, st.Entries, 3+round)
		}
		for i := 0; i < 3+round; i++ {
			if got, ok, err := s2.Get(keyN(i)); !ok || err != nil || !bytes.Equal(got, payloadN(i)) {
				t.Fatalf("budget %d: entry %d beside a stale journal: %v %v", budget, i, ok, err)
			}
		}
		if _, ok, _ := s2.Get(keyN(99)); ok {
			t.Fatalf("budget %d: journal-only phantom entry served", budget)
		}
		if err := s2.Put(keyN(3+round), payloadN(3+round)); err != nil {
			t.Fatal(err)
		}
		s2.Close()
	}
	if got, err := os.ReadFile(journal); err != nil || !bytes.Equal(got, stale) {
		t.Fatalf("the stale journal was touched: %q, %v", got, err)
	}
}

// TestBudgetEvictsLRU proves the byte budget evicts coldest-first and a
// Get refreshes recency.
func TestBudgetEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	// Each entry is 100+n payload + overhead; budget fits ~3 entries.
	s := mustOpen(t, Options{Dir: dir, Budget: 3 * (110 + int64(entryOverhead))})
	for i := 0; i < 3; i++ {
		if err := s.Put(keyN(i), payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch entry 0 so entry 1 is now coldest.
	if _, ok, _ := s.Get(keyN(0)); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	if err := s.Put(keyN(3), payloadN(3)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(keyN(1)); ok {
		t.Fatal("coldest entry survived over budget")
	}
	if _, ok, _ := s.Get(keyN(0)); !ok {
		t.Fatal("touched entry was evicted despite LRU refresh")
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
	// The evicted file is really gone from disk.
	if _, err := os.Stat(filepath.Join(dir, keyN(1).String()+entrySuffix)); !os.IsNotExist(err) {
		t.Fatalf("evicted entry file still present: %v", err)
	}
}

// TestTempFilesCleanedAtOpen plants a crashed writer's temp file and
// proves Open removes it without inventing an entry.
func TestTempFilesCleanedAtOpen(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, tmpPrefix+"123-deadbeef")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, Options{Dir: dir})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived Open: %v", err)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("temp file became an entry: %+v", st)
	}
}

// corruptAt flips one byte (or truncates) the entry file of k.
func corruptAt(t *testing.T, dir string, k Key, pos int, truncate bool) {
	t.Helper()
	path := filepath.Join(dir, k.String()+entrySuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncate {
		data = data[:pos%len(data)]
	} else {
		data[pos%len(data)] ^= 0x40
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptEntryQuarantined pins the corruption contract: a flipped
// bit yields ErrStoreCorrupt (never wrong bytes), the file moves to
// quarantine/, and the key misses cleanly afterwards.
func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	if err := s.Put(keyN(1), payloadN(1)); err != nil {
		t.Fatal(err)
	}
	corruptAt(t, dir, keyN(1), 40, false)
	_, ok, err := s.Get(keyN(1))
	if ok {
		t.Fatal("corrupt entry served")
	}
	if !errors.Is(err, pcerr.ErrStoreCorrupt) {
		t.Fatalf("got %v, want ErrStoreCorrupt", err)
	}
	// Quarantined aside, not deleted: the bad bytes are kept for
	// post-mortem under quarantine/.
	qs, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(qs) != 1 {
		t.Fatalf("quarantine dir: %v entries, err %v", len(qs), err)
	}
	// The key now misses cleanly - no second ErrStoreCorrupt, no serve.
	if _, ok, err := s.Get(keyN(1)); ok || err != nil {
		t.Fatalf("after quarantine: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats %+v", st)
	}
	// A fresh Put of the same key recovers the entry.
	if err := s.Put(keyN(1), payloadN(1)); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Get(keyN(1)); !ok || err != nil || !bytes.Equal(got, payloadN(1)) {
		t.Fatalf("re-put after quarantine: %v %v", ok, err)
	}
}

// TestVersionMismatchQuarantined rewrites an entry's version byte: the
// store must refuse it typed, like any other corruption.
func TestVersionMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	if err := s.Put(keyN(1), payloadN(1)); err != nil {
		t.Fatal(err)
	}
	// Flip the version byte and fix the trailer so only the version is
	// wrong - the strictest test of the version check.
	path := filepath.Join(dir, keyN(1).String()+entrySuffix)
	data, _ := os.ReadFile(path)
	data[len(entryMagic)] = entryVersion + 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(keyN(1)); ok || !errors.Is(err, pcerr.ErrStoreCorrupt) {
		t.Fatalf("version-mismatched entry: ok=%v err=%v", ok, err)
	}
}

// TestCorruptionMatrix sweeps truncation points and bit flips across
// the whole entry layout: every mutation must yield ErrStoreCorrupt or
// a clean miss - never a wrong payload.
func TestCorruptionMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		dir := t.TempDir()
		s := mustOpen(t, Options{Dir: dir})
		payload := make([]byte, 1+rng.Intn(600))
		rng.Read(payload)
		k := keyN(trial)
		if err := s.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		corruptAt(t, dir, k, rng.Intn(len(payload)+entryOverhead), rng.Intn(2) == 0)
		got, ok, err := s.Get(k)
		if ok && !bytes.Equal(got, payload) {
			t.Fatalf("trial %d: corrupt entry served wrong bytes", trial)
		}
		if !ok && err != nil && !errors.Is(err, pcerr.ErrStoreCorrupt) {
			t.Fatalf("trial %d: unexpected error type %v", trial, err)
		}
		if ok {
			// A truncation at exactly full length is a no-op; fine.
			continue
		}
		s.Close()
	}
}

// TestPutFaultsDegrade drives Puts through ENOSPC/EIO/rename faults:
// each fails typed without aborting the store, commits nothing under
// the final name, and later Puts succeed.
func TestPutFaultsDegrade(t *testing.T) {
	for _, f := range []faultfs.Fault{
		{Op: faultfs.OpWrite, After: 1, Err: syscall.ENOSPC},
		{Op: faultfs.OpWrite, After: 1, Err: syscall.EIO, Torn: true},
		{Op: faultfs.OpSync, After: 1, Err: syscall.EIO},
		{Op: faultfs.OpRename, After: 1, Err: syscall.EIO},
		{Op: faultfs.OpOpen, After: 1, Err: syscall.ENOSPC},
	} {
		t.Run(fmt.Sprintf("%s-after-%d", f.Op, f.After), func(t *testing.T) {
			dir := t.TempDir()
			clean := mustOpen(t, Options{Dir: dir})
			clean.Close()
			fs := faultfs.New(faultfs.OS(), []faultfs.Fault{f})
			s := mustOpen(t, Options{Dir: dir, FS: fs})
			// Open writes nothing, so the first Put meets the fault.
			putErr := s.Put(keyN(0), payloadN(0))
			if fs.Fired() != 1 {
				t.Fatalf("the first Put fired %d faults, want 1", fs.Fired())
			}
			if !errors.Is(putErr, f.Err) {
				t.Fatalf("put error %v does not wrap %v", putErr, f.Err)
			}
			// The store still works for the next Put and nothing
			// half-written is served.
			if err := s.Put(keyN(9), payloadN(9)); err != nil {
				t.Fatalf("put after fault: %v", err)
			}
			got, ok, err := s.Get(keyN(9))
			if !ok || err != nil || !bytes.Equal(got, payloadN(9)) {
				t.Fatalf("get after fault: %v %v", ok, err)
			}
		})
	}
}

// TestCrashMidPutLeavesNoEntry crashes the FS during a Put's write:
// after "reboot" (fresh Store, clean FS) the key misses cleanly and the
// orphan temp file is gone.
func TestCrashMidPutLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	clean := mustOpen(t, Options{Dir: dir})
	if err := clean.Put(keyN(0), payloadN(0)); err != nil {
		t.Fatal(err)
	}
	clean.Close()

	fs := faultfs.New(faultfs.OS(), []faultfs.Fault{
		{Op: faultfs.OpWrite, After: 2, Err: syscall.EIO, Torn: true, Crash: true},
	})
	s, err := Open(Options{Dir: dir, FS: fs})
	if err != nil {
		t.Skipf("open died under schedule: %v", err)
	}
	for i := 1; i < 6 && !fs.Crashed(); i++ {
		s.Put(keyN(i), payloadN(i))
	}
	if !fs.Crashed() {
		t.Fatal("schedule never crashed")
	}

	s2 := mustOpen(t, Options{Dir: dir})
	if got, ok, err := s2.Get(keyN(0)); !ok || err != nil || !bytes.Equal(got, payloadN(0)) {
		t.Fatalf("pre-crash entry lost: %v %v", ok, err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if len(de.Name()) > len(tmpPrefix) && de.Name()[:len(tmpPrefix)] == tmpPrefix {
			t.Fatalf("orphan temp file %s survived reopen", de.Name())
		}
	}
	// Whatever committed before the crash must read back valid.
	for i := 1; i < 6; i++ {
		got, ok, err := s2.Get(keyN(i))
		if err != nil {
			t.Fatalf("post-crash entry %d corrupt: %v", i, err)
		}
		if ok && !bytes.Equal(got, payloadN(i)) {
			t.Fatalf("post-crash entry %d has wrong bytes", i)
		}
	}
}

// TestConcurrentPutGet hammers the store from parallel goroutines; run
// under -race in CI.
func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), Budget: 20 * (200 + int64(entryOverhead))})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := keyN(i % 25)
				if got, ok, err := s.Get(k); err == nil && ok {
					if !bytes.Equal(got, payloadN(i%25)) {
						t.Errorf("wrong bytes for %d", i%25)
					}
				}
				s.Put(k, payloadN(i%25))
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("corruption under concurrency: %+v", st)
	}
}

// FuzzEntryCorruption is the fuzz form of the corruption matrix: any
// byte-level mutation of a committed entry must produce the original
// payload, a clean miss, or ErrStoreCorrupt - never different bytes.
func FuzzEntryCorruption(f *testing.F) {
	f.Add([]byte("payload"), uint16(3), byte(0xff), false)
	f.Add([]byte{}, uint16(0), byte(1), true)
	f.Add(bytes.Repeat([]byte{0xAB}, 300), uint16(299), byte(0x80), true)
	f.Fuzz(func(t *testing.T, payload []byte, pos uint16, flip byte, truncate bool) {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		k := KeyOf(payload)
		if err := s.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, k.String()+entrySuffix)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p := int(pos) % len(data)
		mutated := false
		if truncate {
			data = data[:p]
			mutated = true
		} else if flip != 0 {
			data[p] ^= flip
			mutated = true
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, err := s.Get(k)
		if ok {
			if !bytes.Equal(got, payload) {
				t.Fatal("mutated entry served wrong bytes")
			}
			return
		}
		if err != nil && !errors.Is(err, pcerr.ErrStoreCorrupt) {
			t.Fatalf("unexpected error type: %v", err)
		}
		if mutated && err == nil {
			// A truncation to full length or flip of 0 is a no-op;
			// everything else must have been flagged, not silently
			// missed. (A miss without error only happens when the file
			// vanished, which this test never does.)
			t.Fatal("mutated entry neither served nor flagged corrupt")
		}
	})
}

// TestTouchRegistrationEvicts pins the shared-directory budget bug: a
// handle that only ever reads entries committed by another writer
// registers them on the Get path (touch), and that registration must
// enforce the byte budget exactly like a Put - otherwise a read-mostly
// handle on a shared directory grows past -store-budget indefinitely.
func TestTouchRegistrationEvicts(t *testing.T) {
	dir := t.TempDir()
	entryBytes := 100 + int64(entryOverhead) // payloadN(0) is 100 bytes
	budget := 3 * (entryBytes + 10)

	reader := mustOpen(t, Options{Dir: dir, Budget: budget})
	writer := mustOpen(t, Options{Dir: dir}) // unbounded: never evicts itself

	const n = 12
	for i := 0; i < n; i++ {
		if err := writer.Put(keyN(100+i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
		// The reader discovers the foreign entry and must stay bounded.
		if _, ok, err := reader.Get(keyN(100 + i)); !ok || err != nil {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
	}
	st := reader.Stats()
	if st.Bytes > budget {
		t.Fatalf("reader blew through the budget: %d resident bytes > %d budget (%d entries)", st.Bytes, budget, st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions despite %d foreign entries against a %d-byte budget", n, budget)
	}
	// The evicted files must actually be gone from the shared directory.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ents := 0
	for _, de := range des {
		if filepath.Ext(de.Name()) == entrySuffix {
			ents++
		}
	}
	if int64(ents)*entryBytes > budget {
		t.Fatalf("%d entry files on disk exceed the %d-byte budget", ents, budget)
	}
}

// TestTwoWriterTempNamesDoNotCollide pins the tmpSeq collision bug: two
// handles on one directory putting the same keys in the same order used
// to derive identical .tmp-N-<key> names, so the loser of each O_EXCL
// race counted a spurious PutError. With pid+handle mixed in, both
// writers commit cleanly.
func TestTwoWriterTempNamesDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, Options{Dir: dir})
	b := mustOpen(t, Options{Dir: dir})

	const n = 50
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, s := range []*Store{a, b} {
		wg.Add(1)
		go func(s *Store) {
			defer wg.Done()
			<-start
			for i := 0; i < n; i++ {
				s.Put(keyN(200+i), payloadN(i%30))
			}
		}(s)
	}
	close(start)
	wg.Wait()

	if sa, sb := a.Stats(), b.Stats(); sa.PutErrors != 0 || sb.PutErrors != 0 {
		t.Fatalf("spurious put errors from colliding temp names: a=%d b=%d", sa.PutErrors, sb.PutErrors)
	}
	for i := 0; i < n; i++ {
		got, ok, err := a.Get(keyN(200 + i))
		if !ok || err != nil {
			t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(got, payloadN(i%30)) {
			t.Fatalf("key %d: wrong bytes", i)
		}
	}
}

// TestRecencySurvivesReopen pins recency across a restart: a budgeted
// store sets each entry's mtime to its stamp on Put and on a hit, so the
// reopened store evicts b, the coldest entry before it closed, and keeps
// a, the first written, which a Get refreshed.
func TestRecencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	a, b, c, d := keyN(0), keyN(1), keyN(2), keyN(3)
	budget := 3 * (110 + int64(entryOverhead))
	s, err := Open(Options{Dir: dir, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []Key{a, b, c} {
		if err := s.Put(k, payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := s.Get(a); !ok {
		t.Fatal("a missing before close")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, Options{Dir: dir, Budget: budget})
	if err := s2.Put(d, payloadN(3)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s2.Get(b); ok {
		t.Fatal("b, coldest before the reopen, survived over budget")
	}
	for _, k := range []Key{a, c, d} {
		if _, ok, _ := s2.Get(k); !ok {
			t.Fatalf("entry %s evicted in place of b", k.String()[:8])
		}
	}
}

// TestOnlyBudgetedHitsSetMtime pins the hit path's write: a hit on a
// budgeted store moves the entry file's mtime, a hit on an unbudgeted
// store, which never reads recency, leaves the file alone.
func TestOnlyBudgetedHitsSetMtime(t *testing.T) {
	for _, budget := range []int64{0, 1 << 20} {
		dir := t.TempDir()
		s := mustOpen(t, Options{Dir: dir, Budget: budget})
		if err := s.Put(keyN(0), payloadN(0)); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, keyN(0).String()+entrySuffix)
		old := time.Unix(1_000_000_000, 0)
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Get(keyN(0)); !ok || err != nil {
			t.Fatalf("budget %d: get: %v %v", budget, ok, err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if moved := !info.ModTime().Equal(old); moved != (budget > 0) {
			t.Fatalf("budget %d: a hit moved the mtime: %v, want %v", budget, moved, budget > 0)
		}
	}
}

// TestEvictionTiesBreakOnKey rebuilds entries whose mtimes tie, as a
// coarse filesystem clock leaves them: eviction takes the smallest key
// first, whatever order the directory lists them in. The tie is an hour
// ahead, as if the clock was stepped back since: the entry just put must
// still count as the newest.
func TestEvictionTiesBreakOnKey(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	const n = 6
	smallest := keyN(0)
	at := time.Now().Add(time.Hour).Truncate(time.Second)
	for i := 0; i < n; i++ {
		if err := s.Put(keyN(i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(filepath.Join(dir, keyN(i).String()+entrySuffix), at, at); err != nil {
			t.Fatal(err)
		}
		if k := keyN(i); bytes.Compare(k[:], smallest[:]) < 0 {
			smallest = k
		}
	}
	s.Close()

	s2 := mustOpen(t, Options{Dir: dir, Budget: n * (100 + int64(entryOverhead))})
	if err := s2.Put(keyN(n), bytes.Repeat([]byte{n}, 100)); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Evictions != 1 {
		t.Fatalf("%d evictions, want 1", st.Evictions)
	}
	for i := 0; i <= n; i++ {
		if _, ok, _ := s2.Get(keyN(i)); ok == (keyN(i) == smallest) {
			t.Fatalf("key %d resident=%v; the smallest tied key is the one to go", i, ok)
		}
	}
}

// TestConcurrentHitsUnderBudget races Gets, Puts and re-Puts of a small
// key space against a budget that keeps evicting, then checks the index
// against the directory: the resident bytes and entry count are the
// entry files', and the last committed entry is among them.
func TestConcurrentHitsUnderBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Budget: 5 * (120 + int64(entryOverhead))})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 150; i++ {
				n := rng.Intn(12)
				if rng.Intn(3) == 0 {
					s.Put(keyN(n), payloadN(n))
				} else if got, ok, err := s.Get(keyN(n)); err != nil || ok && !bytes.Equal(got, payloadN(n)) {
					t.Errorf("key %d: ok=%v err=%v", n, ok, err)
				}
			}
		}(g)
	}
	wg.Wait()
	last := keyN(99)
	if err := s.Put(last, payloadN(19)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("the budget never evicted: %+v", st)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files int
	var size int64
	for _, de := range des {
		if filepath.Ext(de.Name()) != entrySuffix {
			continue
		}
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		files++
		size += info.Size()
	}
	if st.Bytes != size || st.Entries != files {
		t.Fatalf("index holds %d entries, %d bytes; directory holds %d files, %d bytes", st.Entries, st.Bytes, files, size)
	}
	if _, err := os.Stat(filepath.Join(dir, last.String()+entrySuffix)); err != nil {
		t.Fatalf("last committed entry not resident: %v", err)
	}
}

// BenchmarkStoreGetHit reads resident entries round-robin from stores of
// two sizes: a hit should cost the file read whatever the entry count.
// The budgeted case sets a budget above the store's size, so every hit
// also sets its file's mtime and nothing is evicted.
func BenchmarkStoreGetHit(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5a}, 1800)
	for _, c := range []struct {
		n        int
		budgeted bool
	}{{1500, false}, {12000, false}, {1500, true}} {
		name := fmt.Sprintf("entries=%d", c.n)
		var budget int64
		if c.budgeted {
			name += ",budgeted"
			budget = 2 * int64(c.n*(len(payload)+entryOverhead))
		}
		b.Run(name, func(b *testing.B) {
			// One committed entry, copied under n-1 more keys without an
			// fsync each: Open registers them all from the directory.
			n := c.n
			dir := b.TempDir()
			keys := make([]Key, n)
			for i := range keys {
				keys[i] = keyN(i)
			}
			s, err := Open(Options{Dir: dir})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Put(keys[0], payload); err != nil {
				b.Fatal(err)
			}
			s.Close()
			ent, err := os.ReadFile(filepath.Join(dir, keys[0].String()+entrySuffix))
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range keys[1:] {
				if err := os.WriteFile(filepath.Join(dir, k.String()+entrySuffix), ent, 0o644); err != nil {
					b.Fatal(err)
				}
			}
			if s, err = Open(Options{Dir: dir, Budget: budget}); err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := s.Get(keys[i*7919%n]); !ok || err != nil {
					b.Fatalf("get: ok=%v err=%v", ok, err)
				}
			}
			b.StopTimer()
			if st := s.Stats(); st.Evictions != 0 {
				b.Fatalf("%d evictions under a budget above the store's size", st.Evictions)
			}
		})
	}
}
