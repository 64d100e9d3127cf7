// Package blobstore is the PSP's crash-safe, content-checksummed record
// store. Each record (perturbed JPEG + public-parameter JSON + optional
// idempotency key) is serialized into a versioned envelope (magic, format
// version, lengths, CRC32C over header and payload) and persisted with the
// classic durable-write sequence: write to a temp file, fsync, atomic
// rename into place, fsync the directory. A small journal stages
// multi-step uploads so a crash at any point leaves either the complete
// record or nothing; on startup the store scans the directory, verifies
// every checksum, loads good records, and quarantines (never deletes)
// torn or corrupt files with a structured report.
//
// All filesystem access goes through the FS interface so tests can inject
// faults (torn writes, fsync errors, rename failures, mid-operation
// crashes) via internal/faults.
package blobstore

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the writable-file surface the store needs: sequential writes, a
// durability barrier, and close.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations behind the store's durability
// protocol. OSFS is the real implementation; internal/faults wraps any FS
// with deterministic fault injection.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	// OpenFile opens a file for writing (create/append per flag).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	Stat(name string) (fs.FileInfo, error)
	// SyncDir fsyncs a directory so a preceding rename survives power loss.
	SyncDir(name string) error
}

// OSFS is the passthrough FS backed by the real filesystem.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// OpenFile implements FS.
func (OSFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// ReadDir implements FS.
func (OSFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Stat implements FS.
func (OSFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

// SyncDir implements FS: open the directory and fsync it, which is how
// POSIX makes a completed rename durable.
func (OSFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteDurable installs data at path with the durable-write sequence: stage
// it in tmp (created or truncated, written, fsynced), rename tmp over path,
// then fsync path's directory. When it returns an error before the rename,
// tmp is removed (best effort) and path is untouched; an error from the
// directory sync means the rename happened but may not survive power loss.
func WriteDurable(fsys FS, tmp, path string, data []byte) error {
	if err := writeFileDurable(fsys, tmp, data); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("blobstore: rename %s: %w", path, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("blobstore: sync dir of %s: %w", path, err)
	}
	return nil
}

// writeFileDurable creates or truncates path, writes data, and fsyncs it.
func writeFileDurable(fsys FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("blobstore: stage %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("blobstore: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("blobstore: fsync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("blobstore: close %s: %w", path, err)
	}
	return nil
}
