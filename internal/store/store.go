// Package store is an on-disk, content-addressed result cache with
// crash-safety and corruption tolerance as first-class constraints. It
// maps a 32-byte content key (for the dataset layer: a hash of binary
// fingerprint, architecture range, workload parameters and replay
// format version) to an opaque payload, and guarantees that whatever a
// crash, torn write, flipped bit or full disk does to the directory, a
// read either returns exactly the bytes that were Put or a typed
// pcerr.ErrStoreCorrupt - never silently wrong data.
//
// The discipline:
//
//   - Entries commit via temp file + fsync + atomic rename, never in
//     place; a crash mid-Put leaves only an orphan temp file, removed
//     at the next Open. Committed entries carry a magic/version header
//     and a sha256 trailer over everything before it, so any
//     truncation or bit flip is detected on read.
//
//   - A corrupt entry is quarantined - renamed aside into quarantine/ -
//     the moment it is detected, so it cannot be served twice, and the
//     caller recomputes the cell.
//
//   - The index is a recency journal, advisory only: membership and
//     sizes are always rebuilt from the entry files themselves at Open,
//     so a lost, stale or torn journal costs LRU ordering, never
//     correctness. Appends are buffered and reach the file whole lines
//     at a time, at compaction and at Close: a crash loses at most the
//     recency of the hits and Puts since the last flush.
//
//   - A byte budget bounds the directory; least-recently-used entries
//     are evicted at Put time (the newest entry is always kept).
//     Recency is a per-entry stamp, so a hit costs one map write.
//
//   - Every filesystem operation goes through faultfs.FS, so the whole
//     discipline is provable under seeded fault schedules: ENOSPC, EIO,
//     torn writes, rename failures and crash points degrade Puts to
//     errors the caller absorbs, never to wrong Get results.
//
// A Store is safe for concurrent use within one process. Across
// processes, entry files are safe to share (commits are atomic renames
// and reads validate), while the journal may interleave - which the
// scan-rebuild at Open absorbs by design.
package store

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"portcc/internal/faultfs"
	"portcc/internal/pcerr"
)

// Key is the 32-byte content address of one entry.
type Key [32]byte

// KeyOf hashes arbitrary key material into a Key.
func KeyOf(material []byte) Key { return Key(sha256.Sum256(material)) }

func (k Key) String() string { return hex.EncodeToString(k[:]) }

const (
	// entryMagic opens every committed entry file.
	entryMagic = "portcc-store\n"
	// entryVersion is the on-disk entry layout version; bump on any
	// incompatible change. Mismatching entries are quarantined like
	// corruption - the caller recomputes and overwrites.
	entryVersion = 1
	// entrySuffix names committed entries; tmpPrefix names uncommitted
	// writes (removed at Open).
	entrySuffix = ".ent"
	tmpPrefix   = ".tmp-"
	// journalName is the advisory recency journal; recordLen is one line.
	journalName = "index.log"
	recordLen   = 2 + 2*len(Key{}) + 1
	// quarantineDir collects corrupt entries for post-mortem.
	quarantineDir = "quarantine"
)

// entryOverhead is the fixed byte cost around a payload: magic, version
// byte, 8-byte payload length, sha256 trailer.
const entryOverhead = len(entryMagic) + 1 + 8 + sha256.Size

// Options configures Open.
type Options struct {
	// Dir is the store directory, created if absent.
	Dir string
	// Budget bounds the directory in approximate bytes (committed
	// entries, headers included); 0 is unbounded. The most recently
	// written entry is always retained.
	Budget int64
	// FS is the filesystem the store runs on; nil means the real OS.
	// Tests inject faultfs schedules here.
	FS faultfs.FS
}

// Backend is the contract every result-store implementation satisfies:
// the single-directory Store, the Remote client of a store service, and
// the Tiered composition of both. Callers above the seam (the dataset
// layer's ResultStore) neither know nor care which one answers.
type Backend interface {
	// Get returns the payload stored under k; (nil, false, nil) is a
	// clean miss, a non-nil error wraps pcerr.ErrStoreCorrupt.
	Get(k Key) ([]byte, bool, error)
	// Put commits payload under k; failures degrade to uncached entries.
	Put(k Key, payload []byte) error
	// Quarantine retires k after owner-level validation rejected bytes
	// the store-level checksum accepted.
	Quarantine(k Key, reason error) error
	// Stats returns the operation ledger.
	Stats() Stats
	// Close releases the backend's resources.
	Close() error
}

// Stats is the store's operation ledger, readable concurrently.
type Stats struct {
	// Hits and Misses count Get outcomes; Corrupt counts entries
	// quarantined (by Get validation or by the owner via Quarantine).
	// For a Tiered backend, Hits counts Gets answered by any tier and
	// Misses the Gets no tier could answer.
	Hits, Misses, Corrupt int64
	// Puts counts committed entries; PutErrors counts Puts that failed
	// (ENOSPC, EIO, rename failure, crash) - degraded, not fatal.
	Puts, PutErrors int64
	// Evictions counts budget-driven removals.
	Evictions int64
	// Entries and Bytes describe the resident set.
	Entries int
	Bytes   int64
	// The Remote* counters describe the remote tier of a Tiered backend
	// (always zero for a plain Store): Gets answered by the service,
	// Gets the service answered with a miss, and requests degraded by
	// transport trouble (dead service, torn frames, slow replies -
	// each one cost a timeout or a reconnect and was absorbed as a
	// miss). RemotePuts counts entries acknowledged by the service and
	// RemotePutErrors the commits it lost.
	RemoteHits, RemoteMisses, RemoteErrors int64
	RemotePuts, RemotePutErrors            int64
}

type entryInfo struct {
	size int64
	// seq is the recency stamp: the entry with the smallest is the
	// least recently used.
	seq uint64
}

// Store is one open result-store directory.
type Store struct {
	dir    string
	budget int64
	fs     faultfs.FS

	hits, misses, corrupt, puts, putErrors, evictions atomic.Int64

	mu      sync.Mutex
	entries map[Key]entryInfo
	seq     uint64 // the last recency stamp handed out
	bytes   int64
	// poisoned marks keys whose quarantine rename AND removal both
	// failed (dead FS): never serve them again this session.
	poisoned map[Key]bool
	// journal is the open recency log and jw buffers its appends; nil
	// when appends are unavailable (degraded mode - Open's scan rebuild
	// covers it).
	journal     faultfs.File
	jw          *bufio.Writer
	journalLen  int
	tmpSeq      int
	quarantined int
	// handle distinguishes this Store from every other open handle in
	// this process; with the pid it keeps temp names collision-free
	// across writers sharing one directory.
	handle int64
}

// handleSeq hands every opened Store a process-unique handle id.
var handleSeq atomic.Int64

// Open opens (creating if needed) a store directory: orphan temp files
// from crashed writers are removed, membership and sizes are rebuilt
// from the entry files, and the journal - if present and readable -
// contributes recency ordering for the keys it names. A stale or
// corrupt journal is discarded, never trusted over the scan.
func Open(o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	fs := o.FS
	if fs == nil {
		fs = faultfs.OS()
	}
	if err := fs.MkdirAll(filepath.Join(o.Dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %s: %w", o.Dir, err)
	}
	s := &Store{
		dir:      o.Dir,
		budget:   o.Budget,
		fs:       fs,
		entries:  map[Key]entryInfo{},
		poisoned: map[Key]bool{},
		handle:   handleSeq.Add(1),
	}
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	// The journal is advisory: failing to (re)create it leaves the
	// store fully functional, with recency lost across restarts only.
	s.compactJournal()
	return s, nil
}

// rebuild scans the directory: entry files are authoritative for
// membership and size, the journal only orders the keys it names.
func (s *Store) rebuild() error {
	des, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %s: %w", s.dir, err)
	}
	var present []Key
	for _, de := range des {
		name := de.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			// A crashed writer's uncommitted temp file: never renamed,
			// so never trusted - just noise to clear.
			s.fs.Remove(filepath.Join(s.dir, name))
			continue
		}
		hexKey, ok := strings.CutSuffix(name, entrySuffix)
		if !ok || de.IsDir() {
			continue
		}
		raw, err := hex.DecodeString(hexKey)
		if err != nil || len(raw) != len(Key{}) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		k := Key(raw)
		s.entries[k] = entryInfo{size: info.Size()}
		s.bytes += info.Size()
		present = append(present, k)
	}
	// Recency: journal order first (oldest line = coldest), then keys
	// the journal does not know, warm end, in name order for
	// determinism.
	for _, k := range s.readJournal() {
		if info, ok := s.entries[k]; ok {
			s.stamp(k, info)
		}
	}
	slices.SortFunc(present, func(a, b Key) int { return strings.Compare(string(a[:]), string(b[:])) })
	for _, k := range present {
		if info := s.entries[k]; info.seq == 0 {
			s.stamp(k, info)
		}
	}
	return nil
}

// stamp records k as the most recently used entry. Called with s.mu
// held or before the store is shared.
func (s *Store) stamp(k Key, info entryInfo) {
	s.seq++
	info.seq = s.seq
	s.entries[k] = info
}

// readJournal returns the journal's key sequence with each key at its
// last (warmest) position. Unreadable or malformed journals contribute
// what they can and are otherwise ignored.
func (s *Store) readJournal() []Key {
	f, err := s.fs.OpenFile(filepath.Join(s.dir, journalName), os.O_RDONLY, 0)
	if err != nil {
		return nil
	}
	defer f.Close()
	last := map[Key]int{}
	var seq []Key
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if len(line) < 2 || line[1] != ' ' {
			continue
		}
		raw, err := hex.DecodeString(line[2:])
		if err != nil || len(raw) != len(Key{}) {
			continue
		}
		k := Key(raw)
		switch line[0] {
		case 'p', 't':
			last[k] = len(seq)
			seq = append(seq, k)
		case 'd':
			delete(last, k)
		}
	}
	out := make([]Key, 0, len(last))
	for i, k := range seq {
		// Comma-ok: a deleted key must stay deleted. A bare last[k]
		// yields the zero value for it, which a 'p' at sequence
		// position 0 matches, resurrecting the key.
		if j, ok := last[k]; ok && j == i {
			out = append(out, k)
		}
	}
	return out
}

// appendRecord appends one journal line to dst.
func appendRecord(dst []byte, op byte, k Key) []byte {
	return append(hex.AppendEncode(append(dst, op, ' '), k[:]), '\n')
}

// compactJournal rewrites the journal as one "p" line per entry in LRU
// order (temp + rename, like entries) and reopens it for appending.
// Any failure leaves the store journalless but fully functional.
// Called with s.mu held or before the store is shared.
func (s *Store) compactJournal() {
	if s.journal != nil {
		s.jw.Flush() // a failed rewrite below still leaves these lines
		s.journal.Close()
		s.journal = nil
	}
	path := filepath.Join(s.dir, journalName)
	tmp := path + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	type stamped struct {
		seq uint64
		k   Key
	}
	byAge := make([]stamped, 0, len(s.entries))
	for k, info := range s.entries {
		byAge = append(byAge, stamped{info.seq, k})
	}
	slices.SortFunc(byAge, func(a, b stamped) int { return cmp.Compare(a.seq, b.seq) })
	w := bufio.NewWriter(f)
	for _, e := range byAge {
		w.Write(appendRecord(w.AvailableBuffer(), 'p', e.k))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		s.fs.Remove(tmp)
		return
	}
	j, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	// A buffer of whole lines flushes whole lines, so the appends of
	// handles sharing the directory interleave line by line.
	s.journal, s.jw = j, bufio.NewWriterSize(j, 64*recordLen)
	s.journalLen = len(byAge)
}

// logf appends one journal record, degrading to journalless mode on
// failure and compacting when the log outgrows its entry set. Called
// with s.mu held.
func (s *Store) logf(op byte, k Key) {
	if s.journal == nil {
		return
	}
	if _, err := s.jw.Write(appendRecord(s.jw.AvailableBuffer(), op, k)); err != nil {
		s.journal.Close()
		s.journal = nil
		return
	}
	s.journalLen++
	if s.journalLen > 64 && s.journalLen > 8*len(s.entries) {
		s.compactJournal()
	}
}

func (s *Store) entryPath(k Key) string {
	return filepath.Join(s.dir, k.String()+entrySuffix)
}

// Get returns the payload stored under k. A miss returns (nil, false,
// nil). A corrupt, truncated, version-mismatched or unreadable entry is
// quarantined and returns a non-nil error wrapping
// pcerr.ErrStoreCorrupt - the caller recomputes either way; the error
// distinguishes "never had it" from "had it and it rotted".
func (s *Store) Get(k Key) ([]byte, bool, error) {
	s.mu.Lock()
	poisoned, seen := s.poisoned[k], s.entries[k]
	s.mu.Unlock()
	if poisoned {
		s.misses.Add(1)
		return nil, false, nil
	}

	f, err := s.fs.OpenFile(s.entryPath(k), os.O_RDONLY, 0)
	if err != nil {
		// A missing file is dropped from the index unless a Put or hit
		// stamped it since. An open that fails for any other reason (EIO,
		// dead FS) cannot prove the entry bad, but cannot serve it
		// either: count a miss and leave the file alone.
		s.misses.Add(1)
		if os.IsNotExist(err) {
			s.mu.Lock()
			if s.entries[k].seq == seen.seq {
				s.drop(k)
			}
			s.mu.Unlock()
		}
		return nil, false, nil
	}
	// Sized from the index, plus ReadFrom's slack at EOF: one allocation.
	buf := bytes.NewBuffer(make([]byte, 0, seen.size+bytes.MinRead))
	_, rerr := buf.ReadFrom(f)
	data := buf.Bytes()
	f.Close()
	if rerr != nil {
		// A read error mid-entry: the bytes cannot be trusted, the
		// device cannot be trusted - quarantine and recompute.
		return nil, false, s.quarantine(k, fmt.Errorf("read: %w", rerr))
	}
	payload, verr := validateEntry(data)
	if verr != nil {
		return nil, false, s.quarantine(k, verr)
	}
	s.hits.Add(1)
	s.touch(k, seen.seq, int64(len(data)))
	return payload, true, nil
}

// validateEntry checks the committed layout - magic, version, length,
// sha256 trailer - and returns the payload.
func validateEntry(data []byte) ([]byte, error) {
	if len(data) < entryOverhead {
		return nil, fmt.Errorf("truncated: %d bytes", len(data))
	}
	if string(data[:len(entryMagic)]) != entryMagic {
		return nil, fmt.Errorf("bad magic")
	}
	if v := data[len(entryMagic)]; v != entryVersion {
		return nil, fmt.Errorf("entry version %d, want %d", v, entryVersion)
	}
	szOff := len(entryMagic) + 1
	plen := binary.LittleEndian.Uint64(data[szOff : szOff+8])
	body := data[: len(data)-sha256.Size : len(data)-sha256.Size]
	if uint64(len(body)-szOff-8) != plen {
		return nil, fmt.Errorf("payload length %d, header says %d", len(body)-szOff-8, plen)
	}
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(data[len(body):]) {
		return nil, fmt.Errorf("sha256 mismatch")
	}
	return body[szOff+8:], nil
}

// Put commits payload under k: temp file, fsync, atomic rename,
// directory sync. Failures (ENOSPC, EIO, crash, rename refusal) remove
// the temp file best-effort and return the error - the entry is simply
// not cached; nothing half-written is ever visible under the final
// name. Re-putting an existing key is a cheap no-op (content-addressed:
// same key, same bytes).
func (s *Store) Put(k Key, payload []byte) error {
	s.mu.Lock()
	if _, ok := s.entries[k]; ok {
		s.mu.Unlock()
		return nil
	}
	s.tmpSeq++
	// The temp name carries pid and handle id besides the sequence
	// number: two writers sharing the directory (other processes, or
	// two handles in this one) must never collide on the same O_EXCL
	// open, or the loser counts a spurious PutError for an entry the
	// winner is committing anyway.
	tmp := filepath.Join(s.dir, fmt.Sprintf("%s%d-%d-%d-%s", tmpPrefix, os.Getpid(), s.handle, s.tmpSeq, k.String()[:16]))
	delete(s.poisoned, k) // a fresh commit supersedes a poisoned past
	s.mu.Unlock()

	if err := s.writeEntry(tmp, payload); err != nil {
		s.fs.Remove(tmp)
		s.putErrors.Add(1)
		return fmt.Errorf("store: put %s: %w", k.String()[:12], err)
	}
	// The rename is the commit point, and it registers the entry in the
	// same critical section: no eviction removes the file in between.
	s.mu.Lock()
	if err := s.fs.Rename(tmp, s.entryPath(k)); err != nil {
		s.mu.Unlock()
		s.fs.Remove(tmp)
		s.putErrors.Add(1)
		return fmt.Errorf("store: put %s: rename: %w", k.String()[:12], err)
	}
	if _, ok := s.entries[k]; !ok {
		size := int64(len(payload) + entryOverhead)
		s.bytes += size
		s.stamp(k, entryInfo{size: size})
		s.logf('p', k)
	}
	s.evict()
	s.mu.Unlock()
	// The directory sync only moves the durability point. If it fails
	// the entry is still valid now and either survives the crash or
	// vanishes - both safe.
	s.fs.SyncDir(s.dir)
	s.puts.Add(1)
	return nil
}

// writeEntry writes the committed layout to path with an fsync before
// close, so the rename that follows never publishes unwritten bytes.
func (s *Store) writeEntry(path string, payload []byte) error {
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var hdr [len(entryMagic) + 1 + 8]byte
	copy(hdr[:], entryMagic)
	hdr[len(entryMagic)] = entryVersion
	binary.LittleEndian.PutUint64(hdr[len(entryMagic)+1:], uint64(len(payload)))
	h := sha256.New()
	h.Write(hdr[:])
	h.Write(payload)
	for _, b := range [][]byte{hdr[:], payload, h.Sum(nil)} {
		if _, err := f.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// evict removes least-recently-used entries beyond the byte budget,
// always keeping the newest. Called with s.mu held, files included, so
// no Put or hit registers a key between its index and file removal.
func (s *Store) evict() {
	for s.budget > 0 && s.bytes > s.budget && len(s.entries) > 1 {
		var old Key
		oldest := s.seq + 1
		for k, info := range s.entries {
			if info.seq < oldest {
				old, oldest = k, info.seq
			}
		}
		s.drop(old)
		s.evictions.Add(1)
		s.fs.Remove(s.entryPath(old))
	}
}

// touch stamps k after a Get read it; seen is the stamp the Get found
// before reading (0: unknown). A key the index does not know is
// registered - another process may have committed it - unless the Get
// knew it (an eviction or quarantine dropped it since) or its file is
// gone. Registration grows the
// resident set, so it enforces the byte budget exactly like Put does:
// without that, a handle that only ever reads a shared directory would
// grow past -store-budget indefinitely between its own Puts. Called
// without s.mu.
func (s *Store) touch(k Key, seen uint64, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.entries[k]
	if !ok {
		if seen != 0 {
			return
		}
		if _, err := s.fs.Stat(s.entryPath(k)); err != nil {
			return
		}
		info.size = size
		s.bytes += size
	}
	s.stamp(k, info)
	s.logf('t', k)
	s.evict()
}

// drop removes k from the index (its file is gone or going). Called
// with s.mu held.
func (s *Store) drop(k Key) {
	if info, ok := s.entries[k]; ok {
		delete(s.entries, k)
		s.bytes -= info.size
		s.logf('d', k)
	}
}

// Quarantine moves k's entry aside as corrupt - used by owners whose
// payload-level validation failed on bytes the store-level checksum
// accepted (a content-key collision or codec bug; recompute wins).
func (s *Store) Quarantine(k Key, reason error) error {
	return s.quarantine(k, reason)
}

// quarantine renames the entry into quarantine/ (falling back to
// removal, falling back to an in-memory poison mark when the FS refuses
// both), drops it from the index, and returns the typed corruption
// error. The quarantined copy keeps the bad bytes for post-mortem.
func (s *Store) quarantine(k Key, reason error) error {
	s.corrupt.Add(1)
	s.mu.Lock()
	s.quarantined++
	dst := filepath.Join(s.dir, quarantineDir, fmt.Sprintf("%s.%d.bad", k.String()[:16], s.quarantined))
	s.mu.Unlock()
	if err := s.fs.Rename(s.entryPath(k), dst); err != nil {
		if err := s.fs.Remove(s.entryPath(k)); err != nil {
			// The file can neither move nor die (dead FS, read-only
			// mount): remember never to serve it again.
			s.mu.Lock()
			s.poisoned[k] = true
			s.mu.Unlock()
		}
	}
	s.mu.Lock()
	s.drop(k)
	s.mu.Unlock()
	return fmt.Errorf("store: entry %s: %w: %v", k.String()[:12], pcerr.ErrStoreCorrupt, reason)
}

// Stats returns the operation counters and resident-set size.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := len(s.entries), s.bytes
	s.mu.Unlock()
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Corrupt:   s.corrupt.Load(),
		Puts:      s.puts.Load(),
		PutErrors: s.putErrors.Load(),
		Evictions: s.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
	}
}

// Close compacts and closes the journal. Entries need no flushing -
// every Put committed before returning.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactJournal()
	if s.journal != nil {
		err := s.journal.Close()
		s.journal = nil
		return err
	}
	return nil
}
