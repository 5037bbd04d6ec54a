// Package faultfs is the filesystem twin of internal/faultnet: a
// minimal writable-filesystem abstraction plus an injector that applies
// deterministic, seeded fault schedules to it, for chaos-testing
// crash-safe on-disk state (the content-addressed result store in
// internal/store is the principal consumer).
//
// Faults model the ways real filesystems betray a writer: a write that
// lands only a prefix of its buffer (torn write), ENOSPC and EIO on any
// operation, a rename that fails after its temp file was written, and a
// crash point after which every operation fails - the file mid-write is
// truncated at the fault, exactly the state a kill -9 or power cut
// leaves behind. The injector never corrupts bytes it reported as
// written and never reorders operations, so every surviving on-disk
// state is one a real crash could have produced - exactly the surface a
// temp-file/fsync/rename discipline plus end-to-end checksums must
// absorb.
package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"sync"
	"syscall"
	"time"
)

// FS is the slice of filesystem behaviour the store needs, narrow
// enough to wrap with fault injection. OS is the real implementation;
// New wraps any FS with a fault schedule.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory and its parents.
	MkdirAll(name string, perm os.FileMode) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Stat describes a file.
	Stat(name string) (fs.FileInfo, error)
	// SyncDir flushes a directory's metadata (the durability fence for
	// renames). Implementations on filesystems without directory sync
	// return nil.
	SyncDir(name string) error
	// Chtimes sets a file's access and modification times.
	Chtimes(name string, atime, mtime time.Time) error
}

// File is the open-file surface of FS.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes file contents to stable storage.
	Sync() error
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the real filesystem, the FS every production caller uses.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(name string, perm os.FileMode) error {
	return os.MkdirAll(name, perm)
}
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)      { return os.Stat(name) }
func (osFS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}

// SyncDir fsyncs the directory so a completed rename survives a crash.
// Filesystems that refuse to sync directories (some network and overlay
// mounts) are tolerated: the rename is still atomic, only its
// durability point moves, which the store's scan-rebuild absorbs.
func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// Op names one class of filesystem operation a fault can target.
type Op int

const (
	// OpOpen targets OpenFile calls (creates included).
	OpOpen Op = iota
	// OpWrite targets File.Write calls, on any file of the FS.
	OpWrite
	// OpRead targets File.Read calls.
	OpRead
	// OpSync targets File.Sync calls.
	OpSync
	// OpRename targets Rename calls.
	OpRename
	// OpRemove targets Remove calls.
	OpRemove
)

var opNames = map[Op]string{
	OpOpen: "open", OpWrite: "write", OpRead: "read",
	OpSync: "sync", OpRename: "rename", OpRemove: "remove",
}

func (o Op) String() string { return opNames[o] }

// ErrCrashed is returned by every operation after a Crash fault fired:
// the process holding this FS is, as far as the disk is concerned, dead.
var ErrCrashed = errors.New("faultfs: filesystem crashed")

// Fault is one scheduled failure. It fires on the After-th operation of
// kind Op (1-based, counted across the whole FS), returns Err, and -
// for writes - optionally lands a prefix of the buffer first (Torn).
// With Crash set the whole FS dies at the fault: every later operation
// of any kind fails with ErrCrashed, modelling a kill -9 or power cut
// at exactly this point.
type Fault struct {
	Op    Op
	After int
	Err   error
	Torn  bool
	Crash bool
}

// Injector wraps an FS, applying a fault schedule. Safe for concurrent
// use; operation counts are global across files, so a schedule is a
// deterministic function of the caller's operation order.
type Injector struct {
	base   FS
	mu     sync.Mutex
	faults []Fault
	counts map[Op]int
	// crashed marks the post-crash state; fired counts faults consumed.
	crashed bool
	fired   int
}

// New wraps base with the given fault schedule. A nil or empty schedule
// passes every operation through.
func New(base FS, faults []Fault) *Injector {
	return &Injector{base: base, faults: append([]Fault(nil), faults...), counts: map[Op]int{}}
}

// Seeded derives a deterministic fault schedule from one seed: n faults
// spread over the store's operation mix - torn and clean write failures
// (ENOSPC, EIO), sync failures, rename failures, read errors - with
// roughly one in four schedules ending in a crash point. Operations
// beyond the schedule succeed, so every run under any seed eventually
// heals. The same seed always yields the same schedule.
func Seeded(seed int64, n int) []Fault {
	rng := rand.New(rand.NewSource(seed))
	errs := []error{syscall.ENOSPC, syscall.EIO}
	faults := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		f := Fault{Err: errs[rng.Intn(len(errs))]}
		switch rng.Intn(6) {
		case 0:
			f.Op, f.After = OpOpen, 1+rng.Intn(8)
		case 1, 2:
			f.Op, f.After = OpWrite, 1+rng.Intn(24)
			f.Torn = rng.Intn(2) == 0
		case 3:
			f.Op, f.After = OpSync, 1+rng.Intn(6)
		case 4:
			f.Op, f.After = OpRename, 1+rng.Intn(6)
		case 5:
			f.Op, f.After = OpRead, 1+rng.Intn(12)
		}
		faults = append(faults, f)
	}
	if rng.Intn(4) == 0 && len(faults) > 0 {
		i := rng.Intn(len(faults))
		faults[i].Crash = true
	}
	return faults
}

// Crashed reports whether a Crash fault has fired.
func (j *Injector) Crashed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.crashed
}

// Fired returns how many scheduled faults have fired so far.
func (j *Injector) Fired() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fired
}

// step counts one operation of kind op and returns the fault to apply,
// if any. ErrCrashed dominates once a crash point has fired.
func (j *Injector) step(op Op) (Fault, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.crashed {
		return Fault{}, ErrCrashed
	}
	j.counts[op]++
	for i := range j.faults {
		f := &j.faults[i]
		if f.After > 0 && f.Op == op && j.counts[op] == f.After {
			fault := *f
			f.After = -1 // consumed
			j.fired++
			if fault.Crash {
				j.crashed = true
			}
			return fault, fault.Err
		}
	}
	return Fault{}, nil
}

func (j *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if _, err := j.step(OpOpen); err != nil {
		return nil, err
	}
	f, err := j.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{File: f, inj: j}, nil
}

func (j *Injector) Rename(oldname, newname string) error {
	if _, err := j.step(OpRename); err != nil {
		return err
	}
	return j.base.Rename(oldname, newname)
}

func (j *Injector) Remove(name string) error {
	if _, err := j.step(OpRemove); err != nil {
		return err
	}
	return j.base.Remove(name)
}

// MkdirAll, ReadDir, Stat, SyncDir and Chtimes pass through except
// after a crash: they are not fault targets themselves (the store's
// correctness argument does not depend on them failing in interesting
// ways), but a dead FS refuses them like everything else.
func (j *Injector) MkdirAll(name string, perm os.FileMode) error {
	if j.Crashed() {
		return ErrCrashed
	}
	return j.base.MkdirAll(name, perm)
}

func (j *Injector) ReadDir(name string) ([]fs.DirEntry, error) {
	if j.Crashed() {
		return nil, ErrCrashed
	}
	return j.base.ReadDir(name)
}

func (j *Injector) Stat(name string) (fs.FileInfo, error) {
	if j.Crashed() {
		return nil, ErrCrashed
	}
	return j.base.Stat(name)
}

func (j *Injector) SyncDir(name string) error {
	if j.Crashed() {
		return ErrCrashed
	}
	return j.base.SyncDir(name)
}

func (j *Injector) Chtimes(name string, atime, mtime time.Time) error {
	if j.Crashed() {
		return ErrCrashed
	}
	return j.base.Chtimes(name, atime, mtime)
}

// file wraps one open file with the injector's schedule.
type file struct {
	File
	inj *Injector
}

// Write applies write faults: a torn fault lands a prefix (half the
// buffer, at least one byte for non-empty buffers) before reporting the
// error - the on-disk state a crash mid-write leaves behind.
func (f *file) Write(b []byte) (int, error) {
	fault, err := f.inj.step(OpWrite)
	if err != nil {
		n := 0
		if fault.Torn && len(b) > 0 {
			cut := len(b) / 2
			if cut == 0 {
				cut = 1
			}
			n, _ = f.File.Write(b[:cut])
		}
		return n, err
	}
	return f.File.Write(b)
}

func (f *file) Read(b []byte) (int, error) {
	if _, err := f.inj.step(OpRead); err != nil {
		return 0, err
	}
	return f.File.Read(b)
}

func (f *file) Sync() error {
	if _, err := f.inj.step(OpSync); err != nil {
		return err
	}
	return f.File.Sync()
}

// Close always releases the underlying descriptor - a crashed FS must
// not leak fds into the test process - but reports the crash if one has
// fired, so callers treating Close as a commit point see the failure.
func (f *file) Close() error {
	err := f.File.Close()
	if f.inj.Crashed() {
		return ErrCrashed
	}
	return err
}
