package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"puppies/internal/psp"
	"puppies/internal/stats"
)

func TestParseMix(t *testing.T) {
	m, err := ParseMix("hotget=50, coldget=20,upload=30")
	if err != nil {
		t.Fatal(err)
	}
	want := Mix{HotGet: 50, ColdGet: 20, Upload: 30}
	if m != want {
		t.Fatalf("mix %+v, want %+v", m, want)
	}
	for _, bad := range []string{"", "hotget", "hotget=x", "bogus=5", "hotget=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
}

func TestMixPickCoversAllRoutes(t *testing.T) {
	m := DefaultMix()
	r, err := New(Config{BaseURL: "http://x", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng, _ := r.workerRNG(0)
	seen := map[string]int{}
	for i := 0; i < 10000; i++ {
		seen[m.pick(rng)]++
	}
	for _, route := range []string{RouteHotGet, RouteColdGet, RouteUpload, RouteBatch, RouteRecover, RouteSearch, RouteThumb} {
		if seen[route] == 0 {
			t.Fatalf("route %s never picked: %v", route, seen)
		}
	}
	// The hot share must dominate roughly per its weight.
	if seen[RouteHotGet] < seen[RouteBatch] {
		t.Fatalf("hotget (%d) drawn less than batch (%d)", seen[RouteHotGet], seen[RouteBatch])
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := GateSchedule(10 * time.Second)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Events, back.Events) {
		t.Fatalf("round trip changed schedule:\n%+v\n%+v", s.Events, back.Events)
	}
	// Durations serialize as strings, and numbers still parse.
	var numeric Schedule
	if err := json.Unmarshal([]byte(`{"events":[{"at":1000000000,"kind":"partition","shard":0,"for":500000000}]}`), &numeric); err != nil {
		t.Fatal(err)
	}
	if time.Duration(numeric.Events[0].At) != time.Second {
		t.Fatalf("numeric at = %v", time.Duration(numeric.Events[0].At))
	}
}

func TestGateScheduleShapeAndValidation(t *testing.T) {
	s := GateSchedule(10 * time.Second)
	if err := s.Validate(3); err != nil {
		t.Fatal(err)
	}
	// Windows must not overlap: each event must end before the next
	// begins, so R=3/W=2 always has two healthy shards.
	for i := 1; i < len(s.Events); i++ {
		prevEnd := time.Duration(s.Events[i-1].At) + time.Duration(s.Events[i-1].For)
		if time.Duration(s.Events[i].At) < prevEnd {
			t.Fatalf("events %d and %d overlap", i-1, i)
		}
	}
	// The tail must be fault-free so breakers can demonstrate recovery.
	if end := s.End(); end > 8*time.Second {
		t.Fatalf("last fault reverts at %v, want a clean tail", end)
	}
	// One partition event is required by the load gate.
	var partitions int
	for _, e := range s.Events {
		if e.Kind == EventPartition {
			partitions++
		}
	}
	if partitions != 1 {
		t.Fatalf("gate schedule has %d partitions, want 1", partitions)
	}
	if err := s.Validate(2); err == nil {
		t.Fatal("schedule targeting shard 2 must not validate with 2 shards")
	}
}

func TestScheduleValidateRejectsBadEvents(t *testing.T) {
	cases := []Event{
		{Kind: "meteor", Shard: 0, For: Duration(time.Second)},
		{Kind: EventBurst503, Shard: 0, Rate: 0, For: Duration(time.Second)},
		{Kind: EventBurst503, Shard: 0, Rate: 1.5, For: Duration(time.Second)},
		{Kind: EventLatency, Shard: 0, For: Duration(time.Second)},
		{Kind: EventPartition, Shard: 5, For: Duration(time.Second)},
		{Kind: EventPartition, Shard: 0},
		{Kind: EventPartition, Shard: 0, At: Duration(-1), For: Duration(time.Second)},
	}
	for i, e := range cases {
		s := &Schedule{Events: []Event{e}}
		if err := s.Validate(3); err == nil {
			t.Fatalf("case %d (%+v) validated", i, e)
		}
	}
}

// recordingHooks logs chaos calls for RunSchedule assertions.
type recordingHooks struct {
	mu    chan struct{}
	calls []string
}

func newRecordingHooks() *recordingHooks {
	return &recordingHooks{mu: make(chan struct{}, 1)}
}

func (h *recordingHooks) log(s string) {
	h.mu <- struct{}{}
	h.calls = append(h.calls, s)
	<-h.mu
}

func (h *recordingHooks) Shards() int { return 3 }
func (h *recordingHooks) Burst503(shard int, rate float64) {
	h.log(fmt.Sprintf("burst %d %.1f", shard, rate))
}
func (h *recordingHooks) Latency(shard int, d time.Duration) {
	h.log(fmt.Sprintf("latency %d %v", shard, d))
}
func (h *recordingHooks) Partition(shard int)  { h.log(fmt.Sprintf("partition %d", shard)) }
func (h *recordingHooks) Heal(shard int)       { h.log(fmt.Sprintf("heal %d", shard)) }
func (h *recordingHooks) Kill(shard int) error { h.log(fmt.Sprintf("kill %d", shard)); return nil }
func (h *recordingHooks) Restart(shard int) error {
	h.log(fmt.Sprintf("restart %d", shard))
	return nil
}

func TestRunScheduleAppliesAndReverts(t *testing.T) {
	h := newRecordingHooks()
	s := &Schedule{Events: []Event{
		{At: 0, Kind: EventBurst503, Shard: 1, Rate: 0.5, For: Duration(10 * time.Millisecond)},
		{At: Duration(5 * time.Millisecond), Kind: EventKill, Shard: 2, For: Duration(10 * time.Millisecond)},
	}}
	if err := RunSchedule(context.Background(), s, h, nil); err != nil {
		t.Fatal(err)
	}
	want := []string{"burst 1 0.5", "kill 2", "burst 1 0.0", "restart 2"}
	if !reflect.DeepEqual(h.calls, want) {
		t.Fatalf("calls %v, want %v", h.calls, want)
	}
}

func TestRunScheduleRevertsOnCancel(t *testing.T) {
	h := newRecordingHooks()
	s := &Schedule{Events: []Event{
		{At: 0, Kind: EventPartition, Shard: 0, For: Duration(time.Hour)},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if err := RunSchedule(ctx, s, h, nil); err != nil {
		t.Fatal(err)
	}
	want := []string{"partition 0", "heal 0"}
	if !reflect.DeepEqual(h.calls, want) {
		t.Fatalf("canceled run must still heal: calls %v, want %v", h.calls, want)
	}
}

func TestClassifyTaxonomy(t *testing.T) {
	cases := []struct {
		err      error
		class    string
		expected bool
	}{
		{nil, ClassOK, true},
		{fmt.Errorf("wrap: %w", psp.ErrOverloaded), ClassShed, true},
		{&psp.StatusError{Code: 429}, ClassShed, true},
		{context.Canceled, ClassCanceled, true},
		{context.DeadlineExceeded, ClassCanceled, true},
		{fmt.Errorf("gone: %w", psp.ErrNotFound), ClassNotFound, false},
		{fmt.Errorf("bits: %w", psp.ErrCorrupt), ClassCorrupt, false},
		{&psp.StatusError{Code: 503}, ClassUnavailable, false},
		{errors.New("mystery"), ClassOther, false},
	}
	for i, c := range cases {
		class, expected := Classify(c.err)
		if class != c.class || expected != c.expected {
			t.Fatalf("case %d (%v): got (%s,%v), want (%s,%v)", i, c.err, class, expected, c.class, c.expected)
		}
	}
}

// TestSummaryShowsTail checks the CLI digest prints the tail past p99:
// 429s retried after Retry-After land there, invisible at p99.
func TestSummaryShowsTail(t *testing.T) {
	rep := &Report{Routes: map[string]RouteReport{
		RouteHotGet: {Ops: 100, Latency: stats.HistogramSnapshot{
			Count:  100,
			P50Ns:  int64(time.Millisecond),
			P99Ns:  int64(3 * time.Millisecond),
			P999Ns: int64(998 * time.Millisecond),
			MaxNs:  int64(4 * time.Second),
		}},
	}}
	var buf bytes.Buffer
	rep.Summary(&buf)
	for _, want := range []string{"p99=3ms", "p99.9=998ms", "max=4s"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, buf.String())
		}
	}
}
