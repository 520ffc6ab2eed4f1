// Package store implements the durable half of the ppdp registry: a
// write-ahead journal for registry mutations, checkpointed JSON manifests,
// and content-addressed columnar table snapshots opened via mmap (see
// internal/dataset's snapshot format). The invariant the package maintains is
// prefix consistency: every mutation is journaled and fsynced before it is
// applied, so the state recovered after any crash is exactly the state after
// some prefix of the acknowledged mutation sequence — never a torn mixture,
// never corrupt data (every table load is CRC- and fingerprint-verified).
package store

import (
	"errors"
	"io"
	"os"
	"sync"
)

// Injected fault sentinels, wrapped in *os.PathError like their real
// counterparts so callers exercising error paths see realistic shapes.
var (
	errNoSpace = errors.New("no space left on device (injected)")
	errIO      = errors.New("input/output error (injected)")
)

// FS is the slice of filesystem behavior the store depends on. Production
// uses the operating system (osFS); durability tests substitute FaultFS to
// inject short writes, fsync failures and full disks at exact points.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making renames and creates inside it
	// durable.
	SyncDir(name string) error
}

// File is the subset of *os.File the store writes through.
type File interface {
	io.Writer
	io.Closer
	Sync() error
}

// osFS is the production FS backed by the operating system.
type osFS struct{}

// OSFS returns the production filesystem.
func OSFS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// FaultFS wraps another FS and injects write-path faults for durability
// tests: a byte budget after which writes fail like a full disk (optionally
// after a short write), and scheduled fsync failures. All knobs are
// goroutine-safe; the zero configuration injects nothing.
type FaultFS struct {
	inner FS

	mu sync.Mutex
	// writeBudget is the number of bytes still writable; negative means
	// unlimited. A write that would exceed it is truncated to the remaining
	// budget (the short write) and fails with errInjectedFull.
	writeBudget int64
	// syncCountdown counts down on every file fsync; when it hits zero that
	// fsync (and every later one, until disarmed) fails with errInjectedSync.
	syncCountdown int
	syncArmed     bool
}

// NewFaultFS returns a FaultFS delegating to inner (the OS when nil).
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OSFS()
	}
	return &FaultFS{inner: inner, writeBudget: -1}
}

// SetWriteBudget allows n more bytes of writes; further bytes are cut short
// and fail like a full disk. Negative restores unlimited writes.
func (f *FaultFS) SetWriteBudget(n int64) {
	f.mu.Lock()
	f.writeBudget = n
	f.mu.Unlock()
}

// FailSyncAfter arms fsync failure: the n-th future file fsync (1-based) and
// all subsequent ones fail until the fault is disarmed with DisarmSync.
func (f *FaultFS) FailSyncAfter(n int) {
	f.mu.Lock()
	f.syncArmed = true
	f.syncCountdown = n
	f.mu.Unlock()
}

// DisarmSync clears a pending fsync failure.
func (f *FaultFS) DisarmSync() {
	f.mu.Lock()
	f.syncArmed = false
	f.mu.Unlock()
}

// errInjected* mimic the real failure modes: ENOSPC for budget exhaustion,
// EIO for fsync.
var (
	errInjectedFull = &os.PathError{Op: "write", Path: "faultfs", Err: errNoSpace}
	errInjectedSync = &os.PathError{Op: "sync", Path: "faultfs", Err: errIO}
)

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error)         { return f.inner.ReadFile(name) }
func (f *FaultFS) Rename(oldpath, newpath string) error         { return f.inner.Rename(oldpath, newpath) }
func (f *FaultFS) Remove(name string) error                     { return f.inner.Remove(name) }
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error { return f.inner.MkdirAll(path, perm) }
func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error)   { return f.inner.ReadDir(name) }
func (f *FaultFS) Stat(name string) (os.FileInfo, error)        { return f.inner.Stat(name) }
func (f *FaultFS) Truncate(name string, size int64) error       { return f.inner.Truncate(name, size) }
func (f *FaultFS) SyncDir(name string) error                    { return f.inner.SyncDir(name) }

// faultFile applies the FaultFS write budget and fsync schedule to one file.
type faultFile struct {
	File
	fs *FaultFS
}

func (f *faultFile) Write(b []byte) (int, error) {
	f.fs.mu.Lock()
	budget := f.fs.writeBudget
	allowed := len(b)
	if budget >= 0 {
		if int64(allowed) > budget {
			allowed = int(budget)
		}
		f.fs.writeBudget = budget - int64(allowed)
	}
	f.fs.mu.Unlock()
	if allowed < len(b) {
		// Short write: persist the prefix the "disk" had room for, then fail.
		n, err := f.File.Write(b[:allowed])
		if err != nil {
			return n, err
		}
		return n, errInjectedFull
	}
	return f.File.Write(b)
}

func (f *faultFile) Sync() error {
	f.fs.mu.Lock()
	fail := false
	if f.fs.syncArmed {
		f.fs.syncCountdown--
		if f.fs.syncCountdown <= 0 {
			fail = true
		}
	}
	f.fs.mu.Unlock()
	if fail {
		return errInjectedSync
	}
	return f.File.Sync()
}
