package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"
)

// TestPassthrough proves a fault-free injector behaves like the OS.
func TestPassthrough(t *testing.T) {
	dir := t.TempDir()
	j := New(OS(), nil)
	name := filepath.Join(dir, "a")
	f, err := j.OpenFile(name, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Rename(name, name+"2"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(name + "2")
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
}

// TestWriteFaultFires proves the scheduled write fails with the
// scheduled error, exactly on its operation count.
func TestWriteFaultFires(t *testing.T) {
	dir := t.TempDir()
	j := New(OS(), []Fault{{Op: OpWrite, After: 2, Err: syscall.ENOSPC}})
	f, err := j.OpenFile(filepath.Join(dir, "a"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("one")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := f.Write([]byte("two")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write 2: got %v, want ENOSPC", err)
	}
	if _, err := f.Write([]byte("three")); err != nil {
		t.Fatalf("write 3 (after fault consumed): %v", err)
	}
}

// TestTornWriteLandsPrefix proves a torn write leaves exactly the prefix
// on disk, the state a crash mid-write produces.
func TestTornWriteLandsPrefix(t *testing.T) {
	dir := t.TempDir()
	j := New(OS(), []Fault{{Op: OpWrite, After: 1, Err: syscall.EIO, Torn: true}})
	name := filepath.Join(dir, "a")
	f, err := j.OpenFile(name, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdefgh"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("got %v, want EIO", err)
	}
	if n != 4 {
		t.Fatalf("torn write reported %d bytes, want 4", n)
	}
	f.Close()
	got, _ := os.ReadFile(name)
	if string(got) != "abcd" {
		t.Fatalf("on-disk %q, want the torn prefix \"abcd\"", got)
	}
}

// TestCrashKillsEverything proves a crash fault makes every subsequent
// operation fail with ErrCrashed, whatever its kind.
func TestCrashKillsEverything(t *testing.T) {
	dir := t.TempDir()
	j := New(OS(), []Fault{{Op: OpSync, After: 1, Err: syscall.EIO, Crash: true}})
	name := filepath.Join(dir, "a")
	f, err := j.OpenFile(name, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync: got %v, want EIO", err)
	}
	if !j.Crashed() {
		t.Fatal("injector not crashed after Crash fault")
	}
	if _, err := f.Write([]byte("y")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: %v", err)
	}
	if err := j.Rename(name, name+"2"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename after crash: %v", err)
	}
	if _, err := j.OpenFile(name, os.O_RDONLY, 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("open after crash: %v", err)
	}
	if _, err := j.Stat(name); !errors.Is(err, ErrCrashed) {
		t.Fatalf("stat after crash: %v", err)
	}
	// The crash closed nothing for us; Close releases the fd but reports.
	if err := f.Close(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("close after crash: %v", err)
	}
	// The bytes written before the crash are still on disk.
	got, err := os.ReadFile(name)
	if err != nil || string(got) != "x" {
		t.Fatalf("post-crash on-disk state %q, %v", got, err)
	}
}

// TestChtimesPassesThroughUntilCrash proves Chtimes is no fault target:
// it sets both times while a schedule is armed, and only a crash refuses
// it.
func TestChtimesPassesThroughUntilCrash(t *testing.T) {
	name := filepath.Join(t.TempDir(), "a")
	if err := os.WriteFile(name, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := New(OS(), []Fault{{Op: OpRemove, After: 1, Err: syscall.EIO, Crash: true}})
	at := time.Unix(1_000_000_000, 0)
	if err := j.Chtimes(name, at, at); err != nil {
		t.Fatalf("chtimes: %v", err)
	}
	if info, err := os.Stat(name); err != nil || !info.ModTime().Equal(at) {
		t.Fatalf("mtime after chtimes: %v, %v; want %v", info.ModTime(), err, at)
	}
	if j.Fired() != 0 {
		t.Fatalf("chtimes fired %d faults", j.Fired())
	}
	if err := j.Remove(name); !errors.Is(err, syscall.EIO) || !j.Crashed() {
		t.Fatalf("remove: %v, crashed %v", err, j.Crashed())
	}
	if err := j.Chtimes(name, at, at); !errors.Is(err, ErrCrashed) {
		t.Fatalf("chtimes after crash: %v", err)
	}
}

// TestRenameFault proves rename failures surface without touching the
// destination.
func TestRenameFault(t *testing.T) {
	dir := t.TempDir()
	j := New(OS(), []Fault{{Op: OpRename, After: 1, Err: syscall.EIO}})
	src := filepath.Join(dir, "src")
	if err := os.WriteFile(src, []byte("v"), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "dst")
	if err := j.Rename(src, dst); !errors.Is(err, syscall.EIO) {
		t.Fatalf("got %v, want EIO", err)
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("destination exists after failed rename: %v", err)
	}
	if err := j.Rename(src, dst); err != nil {
		t.Fatalf("second rename (fault consumed): %v", err)
	}
}

// TestSeededDeterministic proves the same seed yields the same schedule
// and different seeds differ somewhere in a small range.
func TestSeededDeterministic(t *testing.T) {
	a, b := Seeded(42, 8), Seeded(42, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	diff := false
	for s := int64(0); s < 8 && !diff; s++ {
		diff = !reflect.DeepEqual(Seeded(s, 8), a)
	}
	if !diff {
		t.Fatal("eight different seeds all matched seed 42's schedule")
	}
	for _, f := range a {
		if f.After <= 0 {
			t.Fatalf("seeded fault with non-positive After: %+v", f)
		}
		if f.Err == nil {
			t.Fatalf("seeded fault with nil error: %+v", f)
		}
	}
}
