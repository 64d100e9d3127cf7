package searchidx

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"puppies/internal/blobstore"
)

// Persistence: the index snapshots into a single blobstore-envelope file
// (magic, header CRC32C, payload CRC32C — the same self-verifying framing
// the durable image store uses) plus an add journal for the increments
// between snapshots, in the blob store's journal line codec
// (blobstore.Log) with bodies "id base64(sig)". Boot loads the snapshot,
// replays the journal's intact prefix (a torn tail from a crash is
// dropped, exactly like the blob store's journal), folds any replayed adds
// into a fresh snapshot, and restarts the journal empty, so new adds never
// land after a torn line. Every compactEvery journaled adds the journal is
// folded the same way. Snapshots are written with blobstore.WriteDurable
// (temp + fsync + rename + dir sync), and every file operation goes
// through a blobstore.FS.

const (
	snapshotFile = "searchidx.snap"
	journalFile  = "searchidx.journal"

	// snapshotRecordID names the envelope record holding the snapshot.
	snapshotRecordID = "searchidx-snapshot"

	// snapVersion versions the snapshot payload inside the envelope.
	snapVersion = 1

	// compactEvery bounds journal growth: after this many journaled adds
	// the journal is folded into the snapshot.
	compactEvery = 4096

	// maxSnapIDLen bounds decoded ID lengths so a corrupt count or length
	// field cannot demand absurd allocations (the envelope CRC already
	// makes this vanishingly unlikely; the bound makes it impossible).
	maxSnapIDLen = 1 << 10
)

// ErrSnapshotCorrupt marks a snapshot payload that fails structural
// validation after the envelope checksums passed.
var ErrSnapshotCorrupt = errors.New("searchidx: corrupt snapshot")

type snapEntry struct {
	id  string
	sig Signature
}

// persister is the journal attachment: an append handle plus the count of
// journaled adds since the last snapshot.
type persister struct {
	mu      sync.Mutex
	fsys    blobstore.FS
	dir     string
	f       *blobstore.Log
	pending int
	// err is the first persistence failure since the last snapshot. After
	// a failed append the journal may end in a torn line, and replay would
	// drop every line after it, so adds stay in memory only until the next
	// snapshot.
	err error
	ix  *Index
}

// OpenDir loads (or initializes) a persistent index rooted at dir on fsys
// (nil means the OS filesystem): the snapshot is decoded, the journal's
// intact prefix replayed, and a fresh journal attached so subsequent Adds
// survive a crash. Entries whose ID keep rejects are dropped (nil keeps
// all): the caller passes the IDs its record store still holds, so a
// record quarantined or lost since the snapshot is never answered. A
// missing dir or files mean an empty index; a corrupt snapshot is an error
// (the caller decides whether to rebuild).
func OpenDir(fsys blobstore.FS, dir string, keep func(id string) bool) (*Index, error) {
	if fsys == nil {
		fsys = blobstore.OSFS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("searchidx: create dir: %w", err)
	}
	var entries []snapEntry
	snapPath := filepath.Join(dir, snapshotFile)
	data, err := fsys.ReadFile(snapPath)
	switch {
	case err == nil:
		if entries, err = decodeSnapshot(data); err != nil {
			return nil, fmt.Errorf("searchidx: snapshot %s: %w", snapPath, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return nil, fmt.Errorf("searchidx: read snapshot: %w", err)
	}
	bodies, err := blobstore.ReadLog(fsys, filepath.Join(dir, journalFile))
	if err != nil {
		return nil, err
	}
	for _, body := range bodies {
		id, sig, ok := parseJournalBody(body)
		if !ok {
			break
		}
		entries = append(entries, snapEntry{id: id, sig: sig})
	}
	ids := make([]string, 0, len(entries))
	sigs := make([]Signature, 0, len(entries))
	for _, e := range entries {
		if keep == nil || keep(e.id) {
			ids = append(ids, e.id)
			sigs = append(sigs, e.sig)
		}
	}
	// AddBatch keeps the order within each segment, so a journaled add
	// replaces the snapshot's signature for the same ID, as replay did.
	ix := New()
	ix.AddBatch(ids, sigs)
	// Restarting the journal discards its torn tail, if any; journaled
	// adds and dropped entries are folded into a snapshot first.
	p := &persister{fsys: fsys, dir: dir, ix: ix}
	if len(bodies) > 0 || len(ids) < len(entries) {
		err = p.compactLocked()
	} else {
		err = p.resetJournal()
	}
	if err != nil {
		return nil, err
	}
	ix.persist = p
	return ix, nil
}

// Save forces a snapshot of the current contents and truncates the
// journal. It also reports the first persistence failure since the last
// snapshot (a failed journal append or automatic compaction), which this
// snapshot repairs when it succeeds. No-op (nil) on a purely in-memory
// index.
func (ix *Index) Save() error {
	if ix.persist == nil {
		return nil
	}
	ix.persist.mu.Lock()
	defer ix.persist.mu.Unlock()
	earlier := ix.persist.err
	return errors.Join(earlier, ix.persist.compactLocked())
}

// Close releases the journal handle after a final snapshot.
func (ix *Index) Close() error {
	if ix.persist == nil {
		return nil
	}
	err := ix.Save()
	ix.persist.mu.Lock()
	defer ix.persist.mu.Unlock()
	cerr := ix.persist.f.Close()
	ix.persist = nil
	return errors.Join(err, cerr)
}

// record journals one add and compacts when the journal has grown enough.
// Called outside any segment lock.
func (p *persister) record(id string, sig Signature) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.err = p.f.Append(journalBody(id, sig), false)
	}
	p.pending++
	if p.pending >= compactEvery {
		if err := p.compactLocked(); err != nil && p.err == nil {
			p.err = err
		}
	}
}

// compactLocked writes a full snapshot durably, then restarts the journal
// empty and clears any earlier failure. If the snapshot write fails, the
// old snapshot and journal stay in place and still load. Caller holds p.mu
// (or owns p outright, while opening).
func (p *persister) compactLocked() error {
	data, err := encodeSnapshot(p.ix.entries())
	if err != nil {
		return err
	}
	path := filepath.Join(p.dir, snapshotFile)
	if err := blobstore.WriteDurable(p.fsys, path+".tmp", path, data); err != nil {
		return fmt.Errorf("searchidx: snapshot: %w", err)
	}
	return p.resetJournal()
}

// resetJournal swaps in a freshly truncated journal. The old handle is
// closed only once the new one is open, so a failure leaves the journal
// appendable (its lines are all in the snapshot; replaying them again is
// harmless).
func (p *persister) resetJournal() error {
	f, err := blobstore.CreateLog(p.fsys, filepath.Join(p.dir, journalFile))
	if err != nil {
		return fmt.Errorf("searchidx: %w", err)
	}
	if p.f != nil {
		_ = p.f.Close() // every line it holds is in the snapshot
	}
	p.f, p.pending, p.err = f, 0, nil
	return nil
}

// entries snapshots the full index contents, sorted by ID so snapshots of
// equal contents are byte-identical regardless of insertion order.
func (ix *Index) entries() []snapEntry {
	var out []snapEntry
	for i := range ix.segs {
		sg := &ix.segs[i]
		sg.mu.RLock()
		for p := range sg.ids {
			out = append(out, snapEntry{id: sg.ids[p], sig: *posSig(sg.sigs, p)})
		}
		sg.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// encodeSnapshot serializes entries into an envelope-framed snapshot:
//
//	payload: u8 version, u32 count, then per entry u16 idLen, id, 64B sig
//
// wrapped in the blobstore v1 envelope (header + payload CRC32C).
func encodeSnapshot(entries []snapEntry) ([]byte, error) {
	size := 5
	for _, e := range entries {
		if len(e.id) == 0 || len(e.id) > maxSnapIDLen {
			return nil, fmt.Errorf("searchidx: id length %d out of range", len(e.id))
		}
		size += 2 + len(e.id) + SigBytes
	}
	payload := make([]byte, 0, size)
	payload = append(payload, snapVersion)
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(entries)))
	for _, e := range entries {
		payload = binary.BigEndian.AppendUint16(payload, uint16(len(e.id)))
		payload = append(payload, e.id...)
		payload = append(payload, e.sig[:]...)
	}
	return blobstore.EncodeRecord(&blobstore.Record{ID: snapshotRecordID, JPEG: payload})
}

// decodeSnapshot parses and validates an envelope-framed snapshot. It never
// panics on arbitrary input (fuzzed by FuzzIndexSnapshot) and never
// allocates more than the input length implies.
func decodeSnapshot(data []byte) ([]snapEntry, error) {
	rec, err := blobstore.DecodeRecord(data)
	if err != nil {
		return nil, err
	}
	if rec.ID != snapshotRecordID {
		return nil, fmt.Errorf("%w: envelope record %q, want %q", ErrSnapshotCorrupt, rec.ID, snapshotRecordID)
	}
	payload := rec.JPEG
	if len(payload) < 5 {
		return nil, fmt.Errorf("%w: %d-byte payload", ErrSnapshotCorrupt, len(payload))
	}
	if payload[0] != snapVersion {
		return nil, fmt.Errorf("%w: payload version %d (this build reads %d)", ErrSnapshotCorrupt, payload[0], snapVersion)
	}
	count := int(binary.BigEndian.Uint32(payload[1:5]))
	// Each entry occupies at least 2+1+SigBytes bytes, so an honest count
	// is bounded by the payload size.
	if count < 0 || count > len(payload)/(3+SigBytes) {
		return nil, fmt.Errorf("%w: implausible entry count %d for %d bytes", ErrSnapshotCorrupt, count, len(payload))
	}
	off := 5
	out := make([]snapEntry, 0, count)
	for i := 0; i < count; i++ {
		if off+2 > len(payload) {
			return nil, fmt.Errorf("%w: truncated at entry %d", ErrSnapshotCorrupt, i)
		}
		idLen := int(binary.BigEndian.Uint16(payload[off : off+2]))
		off += 2
		if idLen == 0 || idLen > maxSnapIDLen || off+idLen+SigBytes > len(payload) {
			return nil, fmt.Errorf("%w: entry %d id length %d", ErrSnapshotCorrupt, i, idLen)
		}
		var e snapEntry
		e.id = string(payload[off : off+idLen])
		off += idLen
		copy(e.sig[:], payload[off:off+SigBytes])
		off += SigBytes
		out = append(out, e)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(payload)-off)
	}
	return out, nil
}

// journalBody formats one add as a journal body: "id base64(sig)". IDs
// never contain spaces (the server validates them), so the body splits
// back unambiguously.
func journalBody(id string, sig Signature) string {
	return id + " " + sigEncoding.EncodeToString(sig[:])
}

// sigEncoding is unpadded base64 that rejects nonzero trailing bits, so
// every accepted body is the one journalBody writes.
var sigEncoding = base64.RawStdEncoding.Strict()

// parseJournalBody inverts journalBody, rejecting any damage.
func parseJournalBody(body string) (string, Signature, bool) {
	var sig Signature
	id, b64, ok := strings.Cut(body, " ")
	if !ok || id == "" {
		return "", sig, false
	}
	raw, err := sigEncoding.DecodeString(b64)
	if err != nil || len(raw) != SigBytes {
		return "", sig, false
	}
	copy(sig[:], raw)
	return id, sig, true
}
