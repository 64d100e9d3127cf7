package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readUnexpected decodes a -report file and returns its unexpected
// client-visible failure count.
func readUnexpected(t *testing.T, path string) uint64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("full report not written: %v", err)
	}
	var rep struct {
		Unexpected uint64 `json:"unexpected"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return rep.Unexpected
}

func TestRunSelfhostWritesReport(t *testing.T) {
	rep := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-selfhost", "3", "-seed", "1", "-duration", "400ms", "-workers", "2",
		"-corpus", "3", "-report", rep,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if n := readUnexpected(t, rep); n != 0 {
		t.Fatalf("%d unexpected failures; stdout: %s", n, stdout.String())
	}
	if !strings.Contains(stdout.String(), "loadgen: seed=1") {
		t.Fatalf("summary missing from stdout: %s", stdout.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{}, // neither target nor selfhost
		{"-target", "http://x", "-selfhost", "3"}, // both
		{"-target", "http://x", "-chaos", "gate"}, // chaos without selfhost
		{"-selfhost", "3", "-mix", "bogus=1"},     // bad mix
	}
	for i, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("case %d (%v): exit %d, want 2; stderr: %s", i, args, code, stderr.String())
		}
	}
}

func TestRunLoadsChaosScheduleFromFile(t *testing.T) {
	dir := t.TempDir()
	sched := filepath.Join(dir, "chaos.json")
	if err := os.WriteFile(sched, []byte(`{"events":[
		{"at":"50ms","kind":"burst503","shard":0,"rate":1.0,"for":"100ms"}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := filepath.Join(dir, "report.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-selfhost", "3", "-seed", "3", "-duration", "400ms", "-workers", "2",
		"-corpus", "2", "-chaos", sched, "-report", rep,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if n := readUnexpected(t, rep); n != 0 {
		t.Fatalf("%d unexpected failures under chaos; stdout: %s", n, stdout.String())
	}

	// A schedule referencing a shard that does not exist must be refused.
	if err := os.WriteFile(sched, []byte(`{"events":[
		{"at":"50ms","kind":"partition","shard":9,"for":"100ms"}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code = run([]string{
		"-selfhost", "3", "-seed", "3", "-duration", "200ms", "-chaos", sched,
	}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("invalid schedule: exit %d, want 2; stderr: %s", code, stderr.String())
	}
}
