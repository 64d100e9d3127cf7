package blobstore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"strings"
)

// Journal line codec, shared by the store's upload journal and the search
// index's add journal. A line is "%08x <body>\n": the CRC32C of body in
// lowercase hex, a space, the body. Each line carries its own checksum, so
// a torn tail (crash mid-append) or a flipped bit is detected, never
// misparsed. Bodies are opaque to the codec and never contain a newline.

// logLine frames body as one journal line.
func logLine(body string) string {
	return fmt.Sprintf("%08x %s\n", crc32.Checksum([]byte(body), castagnoli), body)
}

// parseLog returns the bodies of data's intact prefix: every complete,
// checksum-valid line up to the first that is not. A damaged line ends the
// prefix because it can only come from a torn final append or external
// damage, and everything after it is untrustworthy.
func parseLog(data []byte) []string {
	var bodies []string
	for rest := string(data); rest != ""; {
		line, next, ok := strings.Cut(rest, "\n")
		// A line is intact exactly when re-framing its body reproduces it.
		if !ok || len(line) < 9 || logLine(line[9:]) != line+"\n" {
			break
		}
		bodies = append(bodies, line[9:])
		rest = next
	}
	return bodies
}

// ReadLog returns the bodies of the journal at path's intact prefix: every
// complete, checksum-valid line up to the first that is not. A missing
// journal is empty.
func ReadLog(fsys FS, path string) ([]string, error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("blobstore: read journal %s: %w", path, err)
	}
	return parseLog(data), nil
}

// Log is an append handle on a journal.
type Log struct{ f File }

// CreateLog creates or truncates the journal at path and opens it for
// appends. Replay it (ReadLog) first: a torn tail is discarded here.
func CreateLog(fsys FS, path string) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blobstore: open journal %s: %w", path, err)
	}
	return &Log{f: f}, nil
}

// Append writes body as one line, then fsyncs when sync is set.
func (l *Log) Append(body string, sync bool) error {
	if _, err := l.f.Write([]byte(logLine(body))); err != nil {
		return fmt.Errorf("blobstore: journal append: %w", err)
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("blobstore: journal sync: %w", err)
		}
	}
	return nil
}

// Close releases the handle.
func (l *Log) Close() error { return l.f.Close() }
