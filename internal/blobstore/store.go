package blobstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store layout under the data directory:
//
//	records/<id>.psp   committed envelopes (one per image)
//	tmp/               staging area for in-flight uploads
//	quarantine/        damaged files set aside by recovery, never deleted
//	journal            upload intent log (begin/commit, CRC per line)
//
// Durability protocol for Put: journal BEGIN (fsync) -> write envelope to
// tmp (fsync) -> rename into records/ (atomic) -> fsync records/ -> journal
// COMMIT. A crash at any point leaves either a complete, checksummed record
// or staged garbage that recovery quarantines; the envelope checksums — not
// the journal — are the authority on whether a record is served.
const (
	recordsDir    = "records"
	tmpDir        = "tmp"
	quarantineDir = "quarantine"
	journalName   = "journal"
	recordExt     = ".psp"

	// DefaultMaxKeys bounds the rebuilt idempotency-key index. Keys beyond
	// the cap are evicted oldest-first; an evicted key simply falls back to
	// normal upload semantics (a retry stores a second copy under a new ID
	// instead of deduplicating — safe, just not deduplicated).
	DefaultMaxKeys = 1 << 16
)

// Options configure Open.
type Options struct {
	// FS overrides the filesystem (fault injection in tests). Nil means
	// the real OS filesystem.
	FS FS
	// MaxKeys caps the in-memory idempotency index. Zero means
	// DefaultMaxKeys; negative disables the index entirely.
	MaxKeys int
}

// QuarantinedFile describes one damaged file recovery set aside.
type QuarantinedFile struct {
	// From is the original path, To where it now lives under quarantine/.
	From, To string
	// Reason is the decode failure that condemned it.
	Reason string
}

// RecoveryReport is the structured result of the startup scan.
type RecoveryReport struct {
	// Loaded counts records that passed both checksums.
	Loaded int
	// Quarantined lists torn/corrupt files renamed into quarantine/.
	Quarantined []QuarantinedFile
	// Unsupported lists record files from a newer envelope version: left
	// exactly where they are (a newer build can still read them), not
	// loaded, not quarantined.
	Unsupported []string
	// PendingUploads are journaled BEGIN entries with no COMMIT: uploads
	// in flight at crash time. Their staged temp files (if any) appear in
	// Quarantined; the IDs here are informational.
	PendingUploads []string
}

// Store is a crash-safe on-disk record store. All methods are safe for
// concurrent use; writes are serialized (one durable upload at a time).
type Store struct {
	dir  string
	fsys FS

	mu      sync.RWMutex
	recs    map[string]*Record
	keys    KeyIndex
	journal *Log
	closed  bool
}

// Open loads (or creates) a store rooted at dir, verifying every record's
// checksums and quarantining damage. It never deletes data: damaged files
// are renamed into quarantine/ for forensics.
func Open(dir string, opts Options) (*Store, *RecoveryReport, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	maxKeys := opts.MaxKeys
	if maxKeys == 0 {
		maxKeys = DefaultMaxKeys
	}
	s := &Store{
		dir:  dir,
		fsys: fsys,
		recs: make(map[string]*Record),
		keys: NewKeyIndex(maxKeys),
	}
	for _, d := range []string{dir, filepath.Join(dir, recordsDir), filepath.Join(dir, tmpDir), filepath.Join(dir, quarantineDir)} {
		if err := fsys.MkdirAll(d, 0o755); err != nil {
			return nil, nil, fmt.Errorf("blobstore: create %s: %w", d, err)
		}
	}
	report := &RecoveryReport{}
	if err := s.recover(report); err != nil {
		return nil, nil, err
	}
	// Compact the journal now that every pending upload is resolved, then
	// keep it open for appends.
	journal, err := CreateLog(fsys, filepath.Join(dir, journalName))
	if err != nil {
		return nil, nil, err
	}
	s.journal = journal
	return s, report, nil
}

// recover scans the journal, record files, and staging area.
func (s *Store) recover(report *RecoveryReport) error {
	pending, err := s.readJournal()
	if err != nil {
		return err
	}
	recDir := filepath.Join(s.dir, recordsDir)
	entries, err := s.fsys.ReadDir(recDir)
	if err != nil {
		return fmt.Errorf("blobstore: scan %s: %w", recDir, err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // deterministic load and key-index order
	for _, name := range names {
		path := filepath.Join(recDir, name)
		data, err := s.fsys.ReadFile(path)
		if err != nil {
			return fmt.Errorf("blobstore: read %s: %w", path, err)
		}
		rec, derr := decodeEnvelope(data)
		switch {
		case errors.Is(derr, ErrUnsupportedVersion):
			report.Unsupported = append(report.Unsupported, path)
			continue
		case derr != nil:
			if err := s.quarantine(path, derr.Error(), report); err != nil {
				return err
			}
			continue
		}
		if want := strings.TrimSuffix(name, recordExt); rec.ID != want {
			if err := s.quarantine(path, fmt.Sprintf("envelope id %q does not match filename", rec.ID), report); err != nil {
				return err
			}
			continue
		}
		s.recs[rec.ID] = rec
		s.keys.Add(rec.Key, rec.ID)
		report.Loaded++
		delete(pending, rec.ID)
	}
	// Anything still staged never committed: a crash mid-upload. Set it
	// aside rather than deleting — the operator may want the evidence.
	stageDir := filepath.Join(s.dir, tmpDir)
	staged, err := s.fsys.ReadDir(stageDir)
	if err != nil {
		return fmt.Errorf("blobstore: scan %s: %w", stageDir, err)
	}
	for _, e := range staged {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(stageDir, e.Name())
		if err := s.quarantine(path, "staged upload never committed (crash mid-upload)", report); err != nil {
			return err
		}
	}
	for id := range pending {
		report.PendingUploads = append(report.PendingUploads, id)
	}
	sort.Strings(report.PendingUploads)
	return nil
}

// quarantine renames a damaged file into quarantine/, avoiding name
// collisions across repeated recoveries.
func (s *Store) quarantine(path, reason string, report *RecoveryReport) error {
	base := filepath.Base(path)
	dst := filepath.Join(s.dir, quarantineDir, base)
	for n := 1; ; n++ {
		if _, err := s.fsys.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(s.dir, quarantineDir, fmt.Sprintf("%s.%d", base, n))
	}
	if err := s.fsys.Rename(path, dst); err != nil {
		return fmt.Errorf("blobstore: quarantine %s: %w", path, err)
	}
	report.Quarantined = append(report.Quarantined, QuarantinedFile{From: path, To: dst, Reason: reason})
	return nil
}

// readJournal returns the set of BEGIN ids with no matching COMMIT.
// Journal bodies are "op id" with op B (begin) or C (commit); replay stops
// at the journal's first damaged line (see ReadLog).
func (s *Store) readJournal() (map[string]bool, error) {
	pending := make(map[string]bool)
	bodies, err := ReadLog(s.fsys, filepath.Join(s.dir, journalName))
	if err != nil {
		return nil, err
	}
	for _, body := range bodies {
		switch op, id, _ := strings.Cut(body, " "); op {
		case "B":
			pending[id] = true
		case "C":
			delete(pending, id)
		default:
			return pending, nil
		}
	}
	return pending, nil
}

// validID rejects ids that cannot serve as safe file names.
func validID(id string) error {
	if id == "" || len(id) > maxIDLen {
		return fmt.Errorf("blobstore: id length %d out of range", len(id))
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("blobstore: id %q contains unsafe character %q", id, r)
		}
	}
	if strings.HasPrefix(id, ".") {
		return fmt.Errorf("blobstore: id %q may not start with a dot", id)
	}
	return nil
}

// Put durably stores a record. If key is non-empty and already mapped, the
// previously assigned ID is returned and nothing is written (idempotent
// retry); otherwise the returned ID equals the argument. When Put returns
// an error the record is not acknowledged: a crash right now leaves at most
// staged garbage that the next Open quarantines.
func (s *Store) Put(id string, jpeg, params []byte, key string) (string, error) {
	if err := validID(id); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", errors.New("blobstore: store is closed")
	}
	if prev, ok := s.keys.Get(key); ok {
		return prev, nil
	}
	if _, ok := s.recs[id]; ok {
		return "", fmt.Errorf("blobstore: id %q already stored", id)
	}
	rec := &Record{ID: id, JPEG: jpeg, Params: params, Key: key}
	env, err := encodeEnvelope(rec)
	if err != nil {
		return "", err
	}
	// Journal the BEGIN durably: a lost COMMIT is harmless (recovery
	// re-verifies the record itself).
	if err := s.journal.Append("B "+id, true); err != nil {
		return "", err
	}
	err = WriteDurable(s.fsys, filepath.Join(s.dir, tmpDir, id+recordExt), filepath.Join(s.dir, recordsDir, id+recordExt), env)
	if err != nil {
		// Whatever is staged, recovery quarantines. If only the directory
		// sync failed, the rename happened but may not survive a power
		// cut, so the upload must not be acknowledged. The complete record
		// file stays behind; if it does survive, a later recovery loads it
		// and its embedded idempotency key, so the client's retry still
		// deduplicates (at-least-once, never silent loss).
		return "", err
	}
	if err := s.journal.Append("C "+id, false); err != nil {
		return "", err
	}
	s.recs[id] = rec
	s.keys.Add(key, id)
	return id, nil
}

// KeyIndex is the idempotency-key index both PSP stores use: key -> image
// ID, capped, evicting the oldest key first. An evicted key falls back to
// normal upload semantics: a retry stores a second copy under a new ID
// instead of deduplicating, which is safe, just not deduplicated. Callers
// provide locking.
type KeyIndex struct {
	max   int
	byKey map[string]string
	age   []string // oldest-first insertion order for cap eviction
}

// NewKeyIndex returns an index holding at most max keys; max <= 0
// disables it.
func NewKeyIndex(max int) KeyIndex {
	return KeyIndex{max: max, byKey: make(map[string]string)}
}

// Get resolves key; the empty key never resolves.
func (k *KeyIndex) Get(key string) (string, bool) {
	id, ok := k.byKey[key]
	return id, ok
}

// Add indexes key -> id unless key is empty or already indexed, then
// evicts the oldest keys beyond the cap.
func (k *KeyIndex) Add(key, id string) {
	if key == "" || k.max <= 0 {
		return
	}
	if _, ok := k.byKey[key]; ok {
		return
	}
	k.byKey[key] = id
	k.age = append(k.age, key)
	for len(k.byKey) > k.max {
		delete(k.byKey, k.age[0])
		k.age = k.age[1:]
	}
}

// Len reports how many keys are indexed.
func (k *KeyIndex) Len() int { return len(k.byKey) }

// Get returns the stored record's payloads. The slices alias store-internal
// buffers and must not be mutated.
func (s *Store) Get(id string) (jpeg, params []byte, ok bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.recs[id]
	if !ok {
		return nil, nil, false, nil
	}
	return rec.JPEG, rec.Params, true, nil
}

// IDForKey resolves an idempotency key to its assigned image ID.
func (s *Store) IDForKey(key string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.keys.Get(key)
}

// IDs returns every stored image ID in sorted order.
func (s *Store) IDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.recs))
	for id := range s.recs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Len reports how many records are loaded.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Close releases the journal handle. Further Puts fail; Gets keep working
// from memory.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.journal.Close()
}
