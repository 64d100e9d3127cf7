package faults

import (
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"sync"

	"puppies/internal/blobstore"
)

// Filesystem fault injection, mirroring the HTTP Middleware design: rules
// match operations, each rule carries a script consumed one fault per
// matching operation, and the envelope/durability tests drive a
// blobstore.Store through every crash point deterministically.

// FSOp names a filesystem operation for rule matching.
type FSOp string

// The operations FaultFS distinguishes.
const (
	OpMkdirAll FSOp = "mkdirall"
	OpOpen     FSOp = "open"
	OpWrite    FSOp = "write"
	OpSync     FSOp = "sync"
	OpClose    FSOp = "close"
	OpRename   FSOp = "rename"
	OpRemove   FSOp = "remove"
	OpReadDir  FSOp = "readdir"
	OpReadFile FSOp = "readfile"
	OpStat     FSOp = "stat"
	OpSyncDir  FSOp = "syncdir"
)

// FSKind enumerates injectable filesystem failure modes.
type FSKind int

const (
	// FSNone lets the operation through (useful to skip early matches in
	// a script).
	FSNone FSKind = iota
	// FSErr fails the operation without performing it: a transient I/O
	// error (EIO from fsync, a failed rename). The process keeps running.
	FSErr
	// FSTorn performs a write partially — only KeepBytes bytes reach the
	// file — then fails the operation. Models a short/torn write.
	FSTorn
	// FSCrashBefore simulates the process dying before the operation:
	// nothing is performed, and this plus every subsequent operation
	// fails with ErrCrashed. The on-disk state is frozen at the crash
	// point for a recovery test to reopen.
	FSCrashBefore
	// FSCrashAfter performs the operation fully, then "crashes": the
	// operation reports ErrCrashed and all later operations fail too.
	// Models dying just after a rename or fsync returned.
	FSCrashAfter
	// FSTornCrash writes KeepBytes bytes, then crashes: the post-crash
	// partial file is exactly what a power cut mid-write leaves behind.
	FSTornCrash
)

func (k FSKind) String() string {
	switch k {
	case FSNone:
		return "none"
	case FSErr:
		return "err"
	case FSTorn:
		return "torn"
	case FSCrashBefore:
		return "crash-before"
	case FSCrashAfter:
		return "crash-after"
	case FSTornCrash:
		return "torn-crash"
	}
	return "unknown"
}

// Injection sentinels. ErrCrashed marks every operation refused because the
// simulated process is dead; ErrInjected is the default transient error.
var (
	ErrInjected = errors.New("faults: injected I/O error")
	ErrCrashed  = errors.New("faults: filesystem crashed (simulated)")
)

// FSFault is one scheduled filesystem failure.
type FSFault struct {
	Kind FSKind
	// KeepBytes bounds how much of a torn write persists. Zero means half
	// the buffer.
	KeepBytes int
	// Err overrides the reported error (defaults to ErrInjected, or
	// ErrCrashed for crash kinds).
	Err error
}

// FSRule matches operations and schedules faults for them.
type FSRule struct {
	// Op restricts the rule to one operation; empty matches all.
	Op FSOp
	// PathContains restricts the rule to paths containing the substring;
	// empty matches all. Rename/rename-like ops match on the destination.
	PathContains string
	// Script is consumed one fault per matching operation, in order;
	// after exhaustion the rule no longer fires.
	Script []FSFault

	seen int
}

// FaultFS wraps a blobstore.FS with deterministic fault injection. It is
// safe for concurrent use.
type FaultFS struct {
	inner blobstore.FS

	mu      sync.Mutex
	rules   []*FSRule
	crashed bool
	stats   map[FSKind]int
}

// NewFS wraps inner (nil means the real OS filesystem).
func NewFS(inner blobstore.FS) *FaultFS {
	if inner == nil {
		inner = blobstore.OSFS{}
	}
	return &FaultFS{inner: inner, stats: make(map[FSKind]int)}
}

// Rule appends a rule; rules are evaluated in order and the first matching
// rule with script remaining wins.
func (f *FaultFS) Rule(r FSRule) *FaultFS {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, &r)
	return f
}

// ScriptOn is shorthand for a single-rule schedule on one operation/path.
func (f *FaultFS) ScriptOn(op FSOp, pathContains string, faults ...FSFault) *FaultFS {
	return f.Rule(FSRule{Op: op, PathContains: pathContains, Script: faults})
}

// Crashed reports whether a crash fault has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Count reports how many faults of kind k fired.
func (f *FaultFS) Count(k FSKind) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats[k]
}

// next picks the fault for (op, path). A dead filesystem fails everything.
func (f *FaultFS) next(op FSOp, path string) (FSFault, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return FSFault{}, ErrCrashed
	}
	for _, r := range f.rules {
		if r.Op != "" && r.Op != op {
			continue
		}
		if r.PathContains != "" && !strings.Contains(path, r.PathContains) {
			continue
		}
		if r.seen >= len(r.Script) {
			continue
		}
		ft := r.Script[r.seen]
		r.seen++
		if ft.Kind == FSNone {
			return FSFault{}, nil
		}
		f.stats[ft.Kind]++
		switch ft.Kind {
		case FSCrashBefore, FSCrashAfter, FSTornCrash:
			f.crashed = true
		}
		return ft, nil
	}
	return FSFault{}, nil
}

func (ft FSFault) err() error {
	if ft.Err != nil {
		return ft.Err
	}
	switch ft.Kind {
	case FSCrashBefore, FSCrashAfter, FSTornCrash:
		return ErrCrashed
	}
	return ErrInjected
}

// injectSimple handles the op-level fault plumbing shared by every
// non-write operation: run reports whether the real operation should be
// performed, and retErr the error to return (nil for none).
func (f *FaultFS) injectSimple(op FSOp, path string) (run bool, retErr error) {
	ft, err := f.next(op, path)
	if err != nil {
		return false, err
	}
	switch ft.Kind {
	case FSNone:
		return true, nil
	case FSErr:
		return false, fmt.Errorf("faults: %s %s: %w", op, path, ft.err())
	case FSCrashBefore:
		return false, fmt.Errorf("faults: %s %s: %w", op, path, ft.err())
	case FSCrashAfter:
		return true, fmt.Errorf("faults: %s %s: %w", op, path, ft.err())
	case FSTorn, FSTornCrash:
		// Torn kinds only make sense on writes; treat as FSErr here.
		return false, fmt.Errorf("faults: %s %s: %w", op, path, ft.err())
	}
	return true, nil
}

// MkdirAll implements blobstore.FS.
func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	run, retErr := f.injectSimple(OpMkdirAll, path)
	if run {
		if err := f.inner.MkdirAll(path, perm); err != nil {
			return err
		}
	}
	return retErr
}

// OpenFile implements blobstore.FS.
func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (blobstore.File, error) {
	run, retErr := f.injectSimple(OpOpen, name)
	if !run || retErr != nil {
		return nil, retErr
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: inner}, nil
}

// Rename implements blobstore.FS.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	run, retErr := f.injectSimple(OpRename, newpath)
	if run {
		if err := f.inner.Rename(oldpath, newpath); err != nil {
			return err
		}
	}
	return retErr
}

// Remove implements blobstore.FS.
func (f *FaultFS) Remove(name string) error {
	run, retErr := f.injectSimple(OpRemove, name)
	if run {
		if err := f.inner.Remove(name); err != nil {
			return err
		}
	}
	return retErr
}

// ReadDir implements blobstore.FS.
func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	run, retErr := f.injectSimple(OpReadDir, name)
	if !run || retErr != nil {
		return nil, retErr
	}
	return f.inner.ReadDir(name)
}

// ReadFile implements blobstore.FS.
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	run, retErr := f.injectSimple(OpReadFile, name)
	if !run || retErr != nil {
		return nil, retErr
	}
	return f.inner.ReadFile(name)
}

// Stat implements blobstore.FS.
func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	run, retErr := f.injectSimple(OpStat, name)
	if !run || retErr != nil {
		return nil, retErr
	}
	return f.inner.Stat(name)
}

// SyncDir implements blobstore.FS.
func (f *FaultFS) SyncDir(name string) error {
	run, retErr := f.injectSimple(OpSyncDir, name)
	if run {
		if err := f.inner.SyncDir(name); err != nil {
			return err
		}
	}
	return retErr
}

// faultFile wraps an open file so writes, syncs, and closes pass through
// the schedule. Torn-write faults land here.
type faultFile struct {
	fs    *FaultFS
	name  string
	inner blobstore.File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ft, err := ff.fs.next(OpWrite, ff.name)
	if err != nil {
		return 0, err
	}
	switch ft.Kind {
	case FSNone:
		return ff.inner.Write(p)
	case FSErr, FSCrashBefore:
		return 0, fmt.Errorf("faults: write %s: %w", ff.name, ft.err())
	case FSCrashAfter:
		n, werr := ff.inner.Write(p)
		if werr != nil {
			return n, werr
		}
		return n, fmt.Errorf("faults: write %s: %w", ff.name, ft.err())
	case FSTorn, FSTornCrash:
		keep := ft.KeepBytes
		if keep <= 0 {
			keep = len(p) / 2
		}
		if keep > len(p) {
			keep = len(p)
		}
		n, werr := ff.inner.Write(p[:keep])
		if werr != nil {
			return n, werr
		}
		return n, fmt.Errorf("faults: torn write %s (%d of %d bytes): %w", ff.name, keep, len(p), ft.err())
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	run, retErr := ff.fs.injectSimple(OpSync, ff.name)
	if run {
		if err := ff.inner.Sync(); err != nil {
			return err
		}
	}
	return retErr
}

func (ff *faultFile) Close() error {
	run, retErr := ff.fs.injectSimple(OpClose, ff.name)
	// Always release the real handle, even on injected failure — the
	// simulated crash kills the process, not the test harness.
	if err := ff.inner.Close(); err != nil && run && retErr == nil {
		return err
	}
	return retErr
}
