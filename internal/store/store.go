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
//   - The entry files are the only state: membership, sizes and ages
//     are rebuilt from them at Open. There is no index file to lose,
//     tear or let go stale.
//
//   - A byte budget bounds the directory; least-recently-used entries
//     are evicted at Put time and when a hit registers a foreign entry
//     (the newest entry is always kept). An entry's age is its file's
//     mtime, which a budgeted store sets on every Put and hit, so
//     recency survives a restart. An unbudgeted store never evicts:
//     its hits write nothing and take the lock once.
//
//   - Every filesystem operation goes through faultfs.FS, so the whole
//     discipline is provable under seeded fault schedules: ENOSPC, EIO,
//     torn writes, rename failures and crash points degrade Puts to
//     errors the caller absorbs, never to wrong Get results.
//
// A Store is safe for concurrent use within one process. Across
// processes, entry files are safe to share: commits are atomic renames
// and reads validate.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	// entries, headers included); 0 is unbounded and a negative budget
	// is refused. The most recently used entry is always retained.
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
	// The Remote* counters describe the service client, alone or as
	// the remote tier of a Tiered backend (always zero for a plain
	// Store): Gets answered by the service, Gets the service answered
	// with a miss, and requests degraded by transport trouble (dead
	// service, torn frames, slow replies - each one cost a timeout or
	// a reconnect and was absorbed as a miss). RemotePuts counts entries acknowledged by the service and
	// RemotePutErrors the commits it lost.
	RemoteHits, RemoteMisses, RemoteErrors int64
	RemotePuts, RemotePutErrors            int64
}

type entryInfo struct {
	size int64
	// stamp is the recency stamp in Unix nanoseconds: the file's mtime
	// at Open, the time of its last Put since, or of its last hit in a
	// budgeted store. The entry with the smallest is the least recently
	// used.
	stamp int64
}

// Store is one open result-store directory.
type Store struct {
	dir    string
	budget int64
	fs     faultfs.FS

	hits, misses, corrupt, puts, putErrors, evictions atomic.Int64

	mu      sync.Mutex
	entries map[Key]entryInfo
	last    int64 // the largest recency stamp in the index
	bytes   int64
	// poisoned marks keys whose quarantine rename AND removal both
	// failed (dead FS): never serve them again this session.
	poisoned    map[Key]bool
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
// from crashed writers are removed, and membership, sizes and recency
// are rebuilt from the entry files, which Open only reads.
func Open(o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if o.Budget < 0 {
		return nil, fmt.Errorf("store: %w: negative budget %d", pcerr.ErrInvalidConfig, o.Budget)
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
	return s, nil
}

// rebuild scans the directory: each entry file gives its key, its size
// and, through its mtime, its recency stamp. Ties between coarse mtimes
// are broken on key bytes at eviction.
func (s *Store) rebuild() error {
	des, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %s: %w", s.dir, err)
	}
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
		at := info.ModTime().UnixNano()
		s.entries[Key(raw)] = entryInfo{size: info.Size(), stamp: at}
		s.bytes += info.Size()
		s.last = max(s.last, at)
	}
	return nil
}

// stamp records k as the most recently used entry. Stamps are strictly
// increasing within a session and above every mtime the rebuild read,
// so the entry just stamped is never the one evicted. A budgeted store
// also sets the file's mtime to the stamp; a failure costs recency
// across a restart, never correctness. Called with s.mu held.
func (s *Store) stamp(k Key, info entryInfo) {
	s.last = max(time.Now().UnixNano(), s.last+1)
	info.stamp = s.last
	s.entries[k] = info
	if s.budget > 0 {
		at := time.Unix(0, s.last)
		s.fs.Chtimes(s.entryPath(k), at, at)
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
	poisoned := s.poisoned[k]
	seen, known := s.entries[k]
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
			if s.entries[k].stamp == seen.stamp {
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
	s.touch(k, known, int64(len(data)))
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
// always keeping the newest. Stamps rebuilt from coarse mtimes can tie;
// the smaller key goes first. Called with s.mu held, files included, so
// no Put or hit registers a key between its index and file removal.
func (s *Store) evict() {
	for s.budget > 0 && s.bytes > s.budget && len(s.entries) > 1 {
		var old Key
		oldest := s.last + 1
		for k, info := range s.entries {
			if info.stamp < oldest || info.stamp == oldest && bytes.Compare(k[:], old[:]) < 0 {
				old, oldest = k, info.stamp
			}
		}
		s.drop(old)
		s.evictions.Add(1)
		s.fs.Remove(s.entryPath(old))
	}
}

// touch records a hit on k; known says whether the Get found k in the
// index before reading. A known key is restamped only by a budgeted
// store, the one reader of recency. A key the index does not know is
// registered - another process may have committed it - unless the Get
// knew it (an eviction or quarantine dropped it since) or its file is
// gone. Registration grows the resident set, so it enforces the byte
// budget exactly like Put does: without that, a handle that only ever
// reads a shared directory would grow past -store-budget indefinitely
// between its own Puts. Called without s.mu.
func (s *Store) touch(k Key, known bool, size int64) {
	if known && s.budget == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.entries[k]
	if !ok {
		if known {
			return
		}
		if _, err := s.fs.Stat(s.entryPath(k)); err != nil {
			return
		}
		info.size = size
		s.bytes += size
	}
	s.stamp(k, info)
	s.evict()
}

// drop removes k from the index (its file is gone or going). Called
// with s.mu held.
func (s *Store) drop(k Key) {
	if info, ok := s.entries[k]; ok {
		delete(s.entries, k)
		s.bytes -= info.size
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

// Close has nothing to flush: every Put committed before returning, and
// a budgeted store's recency is already in its files' mtimes.
func (s *Store) Close() error { return nil }
