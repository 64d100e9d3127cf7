package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

var tinySizes = sizes{
	setups:           2,
	warm:             100 * time.Millisecond,
	shareRenders:     2,
	viewsPhotos:      4,
	viewsRate:        200,
	churnPhotos:      8,
	churnPool:        4,
	churnSampleEvery: 2,
}

// benchmarkJSON is the part of BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each emits every metric BENCHMARK.json names with its unit, passes
// its own correctness checks, creates no files and leaks no goroutines.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	entries := func() string {
		es, err := os.ReadDir(".")
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range es {
			names = append(names, e.Name())
		}
		return strings.Join(names, ",")
	}
	files := entries()
	goroutines := runtime.NumGoroutine()

	check := func(workload string, trace bool, want []struct{ Name, Unit string }) {
		t.Helper()
		var out bytes.Buffer
		cfg := config{workload: workload, seed: 3, window: 300 * time.Millisecond, trace: trace, sizes: tinySizes}
		if err := emit(cfg, &out); err != nil {
			t.Fatalf("%s trace=%v: %v", workload, trace, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", workload, trace, res.Correct, res.Attempted, res.Failed, lines[0])
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", workload, trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", workload, trace, m.Name, got, m.Unit)
			}
		}
		if workload == "churn" {
			var h struct{ Header map[string]float64 }
			_ = json.Unmarshal([]byte(lines[0]), &h) // non-numeric header fields do not decode
			if h.Header["churn_checked_gets"] < 1 || h.Header["churn_checked_uploads"] < 1 {
				t.Errorf("churn trace=%v checked %v gets and %v uploads, want both", trace, h.Header["churn_checked_gets"], h.Header["churn_checked_uploads"])
			}
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
	// Every workload, including views, which BENCHMARK.json does not list
	// (see the package doc) but every traced run measures.
	for _, w := range []string{"share", "views", "churn"} {
		check(w, false, spec.EndToEnd)
		check(w, true, spec.PerLayer)
	}

	if got := entries(); got != files {
		t.Errorf("files changed: %s -> %s", files, got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines leaked:\n%s", n-goroutines, buf[:runtime.Stack(buf, true)])
	}
}

// TestChurnSamplesBothKinds checks that at full size the first 64 ops
// re-check both uploads and reads.
func TestChurnSamplesBothKinds(t *testing.T) {
	gets, uploads := 0, 0
	for i := 0; i < 64; i++ {
		if churnSampled(fullSizes.churnSampleEvery, i) {
			if isUpload(i) {
				uploads++
			} else {
				gets++
			}
		}
	}
	if gets == 0 || uploads == 0 {
		t.Errorf("%d sampled reads and %d sampled uploads in 64 ops", gets, uploads)
	}
}

// TestClusterListensOnLoopback checks every listener binds 127.0.0.1.
func TestClusterListensOnLoopback(t *testing.T) {
	c, err := startCluster(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for _, u := range append([]string{c.base}, c.shards[0].url, c.shards[1].url, c.shards[2].url) {
		if !strings.HasPrefix(u, "http://127.0.0.1:") {
			t.Errorf("listener %s is not on loopback", u)
		}
	}
}

// TestRunRejectsBadFlags checks the command exits non-zero, printing no
// result, when the workload is unknown.
func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}

// TestBlockQuantile checks that a burst filling a minority of the blocks
// leaves the tail alone, that a tail recurring in every block sets it, and
// that a run too short for three blocks falls back to the whole window.
func TestBlockQuantile(t *testing.T) {
	base := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i % 100)
		}
		return xs
	}
	if got := blockQuantile(base(5000), 0.99); got != 98 {
		t.Errorf("steady: got %v, want 98", got)
	}
	burst := base(5000)
	for i := 0; i < 2000; i++ {
		burst[i] += 1000
	}
	if got, whole := blockQuantile(burst, 0.99), quantile(burst, 0.99); got != 98 || whole != 1097 {
		t.Errorf("burst in 2 of 5 blocks: got %v (whole window %v), want 98 (1097)", got, whole)
	}
	recurring := base(5000)
	for i := range recurring {
		if i%50 == 0 {
			recurring[i] = 500
		}
	}
	if got := blockQuantile(recurring, 0.99); got != 500 {
		t.Errorf("recurring tail: got %v, want 500", got)
	}
	short := base(2000)
	short[0] = 1e6
	if got, want := blockQuantile(short, 0.999), quantile(short, 0.999); got != want {
		t.Errorf("short run: got %v, want the whole-window %v", got, want)
	}
}
