package searchidx

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"puppies/internal/faults"
)

// knn collects k-NN answers for a set of queries — the unit of comparison
// for the restart tests: a reloaded index must answer bit-identically.
func knn(ix *Index, queries []Signature, k int) [][]Result {
	out := make([][]Result, len(queries))
	for i, q := range queries {
		out[i] = ix.Lookup(q, k)
	}
	return out
}

func TestSnapshotRestartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(21))
	ix, err := OpenDir(nil, dir, nil)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	var queries []Signature
	for i := 0; i < 300; i++ {
		sig := randomSig(rng)
		ix.Add(fmt.Sprintf("id-%04d", i), sig)
		if i%30 == 0 {
			queries = append(queries, noisySig(rng, sig, 4))
		}
	}
	if err := ix.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// Post-snapshot adds land only in the journal.
	for i := 300; i < 350; i++ {
		ix.Add(fmt.Sprintf("id-%04d", i), randomSig(rng))
	}
	want := knn(ix, queries, 10)
	if err := ix.persist.f.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	re, err := OpenDir(nil, dir, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if re.Len() != 350 {
		t.Fatalf("reloaded Len = %d, want 350", re.Len())
	}
	got := knn(re, queries, 10)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded k-NN differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(22))
	ix, err := OpenDir(nil, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigs := make([]Signature, 5)
	for i := range sigs {
		sigs[i] = randomSig(rng)
		ix.Add(fmt.Sprintf("id-%d", i), sigs[i])
	}
	ix.persist.f.Close()
	// Simulate a crash mid-append: garbage after the valid prefix.
	jp := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("deadbeef torn-line-without-valid-")
	f.Close()

	re, err := OpenDir(nil, dir, nil)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	if re.Len() != 5 {
		t.Fatalf("Len = %d after torn tail, want the 5 intact entries", re.Len())
	}
	for i := range sigs {
		if got, ok := re.Get(fmt.Sprintf("id-%d", i)); !ok || got != sigs[i] {
			t.Fatalf("entry id-%d lost or damaged after torn-tail recovery", i)
		}
	}
	// Crash again: the replayed entries and an add made after the torn
	// tail must all survive the next boot.
	re.Add("id-5", randomSig(rng))
	re.persist.f.Close()
	again, err := OpenDir(nil, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != 6 {
		t.Fatalf("Len = %d after a second crash, want 6", again.Len())
	}
}

func TestSnapshotCorruptIsError(t *testing.T) {
	dir := t.TempDir()
	ix, err := OpenDir(nil, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	ix.Add("only", randomSig(rng))
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	ix.persist.f.Close()
	sp := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(sp)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(sp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(nil, dir, nil); err == nil {
		t.Fatal("OpenDir accepted a corrupt snapshot")
	}
}

func TestSnapshotRoundTripEmptyAndOrder(t *testing.T) {
	// Empty index round-trips.
	data, err := encodeSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := decodeSnapshot(data)
	if err != nil || len(entries) != 0 {
		t.Fatalf("empty snapshot round-trip: %v, %d entries", err, len(entries))
	}
	// Snapshots are byte-identical regardless of insertion order.
	rng := rand.New(rand.NewSource(24))
	sigs := []Signature{randomSig(rng), randomSig(rng), randomSig(rng)}
	a, b := New(), New()
	for i, s := range sigs {
		a.Add(fmt.Sprintf("id-%d", i), s)
	}
	for i := len(sigs) - 1; i >= 0; i-- {
		b.Add(fmt.Sprintf("id-%d", i), sigs[i])
	}
	ea, _ := encodeSnapshot(a.entries())
	eb, _ := encodeSnapshot(b.entries())
	if string(ea) != string(eb) {
		t.Fatal("snapshot bytes depend on insertion order")
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	ix, err := OpenDir(nil, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	n := compactEvery + 10
	for i := 0; i < n; i++ {
		ix.Add(fmt.Sprintf("id-%05d", i), randomSig(rng))
	}
	// Compaction must have folded the journal into the snapshot.
	if ix.persist.pending >= compactEvery {
		t.Fatalf("journal holds %d entries, compaction never ran", ix.persist.pending)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatalf("snapshot missing after compaction: %v", err)
	}
	ix.persist.f.Close()
	re, err := OpenDir(nil, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != n {
		t.Fatalf("reloaded Len = %d, want %d", re.Len(), n)
	}
}

// legacySig is the signature testdata/legacy stores for entry n.
func legacySig(n int) Signature {
	var s Signature
	for i := range s {
		s[i] = byte(i*7 + n*31)
	}
	return s
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenDirLoadsLegacyFiles loads a snapshot and journal written by the
// index before it shared the blob store's journal codec: snap-0..2 in the
// snapshot, then journal lines adding journal-3 and replacing snap-1.
func TestOpenDirLoadsLegacyFiles(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "legacy"), dir)
	// Today's writer produces the legacy journal byte for byte.
	legacy, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	fresh := t.TempDir()
	w, err := OpenDir(nil, fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Add("journal-3", legacySig(3))
	w.Add("snap-1", legacySig(4))
	w.persist.f.Close()
	if got, err := os.ReadFile(filepath.Join(fresh, journalFile)); err != nil || string(got) != string(legacy) {
		t.Fatalf("journal lines differ from the legacy form (%v):\n got %q\nwant %q", err, got, legacy)
	}

	ix, err := OpenDir(nil, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Len() != 4 {
		t.Fatalf("Len = %d, want 4", ix.Len())
	}
	for id, n := range map[string]int{"snap-0": 0, "snap-1": 4, "snap-2": 2, "journal-3": 3} {
		if got, ok := ix.Get(id); !ok || got != legacySig(n) {
			t.Errorf("%s: loaded %v, want legacySig(%d)", id, ok, n)
		}
	}
}

// TestOpenDirKeepFilter drops entries whose ID the record store no longer
// holds, and the next boot does not see them either.
func TestOpenDirKeepFilter(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "legacy"), dir)
	keep := func(id string) bool { return id != "snap-1" && id != "journal-3" }
	ix, err := OpenDir(nil, dir, keep)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d with the filter, want 2", ix.Len())
	}
	ix.persist.f.Close()
	re, err := OpenDir(nil, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Get("snap-1"); ok || re.Len() != 2 {
		t.Fatalf("dropped entries came back: Len = %d", re.Len())
	}
}

// TestTornJournalAppendFaultFS tears one journal append through the
// fault-injecting filesystem: a crash image keeps the intact prefix, Save
// reports the failure and its snapshot repairs the loss.
func TestTornJournalAppendFaultFS(t *testing.T) {
	dir := t.TempDir()
	fsys := faults.NewFS(nil)
	fsys.ScriptOn(faults.OpWrite, journalFile, faults.FSFault{Kind: faults.FSNone}, faults.FSFault{Kind: faults.FSTorn, KeepBytes: 20})
	ix, err := OpenDir(fsys, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	sigs := []Signature{randomSig(rng), randomSig(rng), randomSig(rng)}
	for i, sig := range sigs {
		ix.Add(fmt.Sprintf("id-%d", i), sig)
	}
	if fsys.Count(faults.FSTorn) != 1 {
		t.Fatalf("torn faults fired = %d, want 1", fsys.Count(faults.FSTorn))
	}

	crash := t.TempDir()
	copyDir(t, dir, crash)
	re, err := OpenDir(nil, crash, nil)
	if err != nil {
		t.Fatalf("reopen crash image: %v", err)
	}
	if got, ok := re.Get("id-0"); re.Len() != 1 || !ok || got != sigs[0] {
		t.Fatalf("crash image: Len = %d, want the intact prefix (id-0) only", re.Len())
	}
	re.Close()

	if err := ix.Save(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Save after a torn append = %v, want the injected error", err)
	}
	if err := ix.Save(); err != nil {
		t.Fatalf("second Save = %v, want nil once a snapshot succeeded", err)
	}
	ix.persist.f.Close()
	re, err = OpenDir(nil, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(sigs) {
		t.Fatalf("after Save: Len = %d, want %d", re.Len(), len(sigs))
	}
}

// TestSnapshotFailureKeepsOldFilesFaultFS fails the snapshot's fsync or
// rename: Save reports it, and the previous snapshot plus the journal
// still load everything.
func TestSnapshotFailureKeepsOldFilesFaultFS(t *testing.T) {
	for name, rule := range map[string]faults.FSRule{
		"fsync":  {Op: faults.OpSync, PathContains: snapshotFile},
		"rename": {Op: faults.OpRename, PathContains: snapshotFile},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fsys := faults.NewFS(nil)
			// The first snapshot succeeds, the second fails.
			rule.Script = []faults.FSFault{{Kind: faults.FSNone}, {Kind: faults.FSErr}}
			fsys.Rule(rule)
			ix, err := OpenDir(fsys, dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(27))
			a, b := randomSig(rng), randomSig(rng)
			ix.Add("a", a)
			if err := ix.Save(); err != nil {
				t.Fatalf("first Save: %v", err)
			}
			ix.Add("b", b)
			if err := ix.Save(); !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("Save with a failed %s = %v, want the injected error", name, err)
			}
			if _, err := os.Stat(filepath.Join(dir, snapshotFile+".tmp")); !os.IsNotExist(err) {
				t.Errorf("snapshot temp left behind: %v", err)
			}
			ix.persist.f.Close()
			re, err := OpenDir(nil, dir, nil)
			if err != nil {
				t.Fatalf("reopen after failed snapshot: %v", err)
			}
			defer re.Close()
			gotA, okA := re.Get("a")
			gotB, okB := re.Get("b")
			if re.Len() != 2 || !okA || !okB || gotA != a || gotB != b {
				t.Fatalf("reopen: Len = %d, a %v, b %v; want both entries intact", re.Len(), okA, okB)
			}
		})
	}
}
