// Package loadgen is the load & chaos harness behind `cmd/loadgen` and
// TestSoakChaosZipf: a seeded Zipf traffic generator (closed- or open-loop)
// that replays a realistic mix of PSP operations against a live pspd or
// cluster gateway while a chaos schedule injects 503 bursts, latency
// spikes, partitions, and shard kills — and then reports per-route latency
// histograms plus an error taxonomy strict enough to gate on "zero
// unexpected client-visible failures".
//
// Everything is seeded: the corpus, the op mix, the Zipf ranks, the fault
// schedule. Two runs with the same seed replay the same workload, which is
// what makes the soak test's assertions meaningful rather than a coin flip.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("750ms") and unmarshals from either that form or integer nanoseconds,
// so chaos schedules on disk stay legible.
type Duration time.Duration

// MarshalJSON renders the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "300ms"-style strings or raw nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("loadgen: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("loadgen: duration must be a string or nanoseconds: %w", err)
	}
	*d = Duration(n)
	return nil
}

// EventKind names one chaos failure mode.
type EventKind string

const (
	// EventBurst503 makes a shard answer 503 (with Retry-After) for a
	// fraction Rate of its requests for the event window.
	EventBurst503 EventKind = "burst503"
	// EventLatency delays every request on a shard by Delay for the
	// window.
	EventLatency EventKind = "latency"
	// EventPartition makes a shard unreachable at the transport layer
	// (connection refused) until the window ends.
	EventPartition EventKind = "partition"
	// EventKill closes the shard's listener entirely; the window end
	// restarts it on the same address with its store intact — a process
	// restart, not a data loss.
	EventKill EventKind = "kill"
)

// Event is one windowed fault in a chaos schedule.
type Event struct {
	At    Duration  `json:"at"`              // offset from run start
	Kind  EventKind `json:"kind"`            // failure mode
	Shard int       `json:"shard"`           // target shard index
	Rate  float64   `json:"rate,omitempty"`  // burst503: fraction of requests hit
	Delay Duration  `json:"delay,omitempty"` // latency: added per-request delay
	For   Duration  `json:"for"`             // window length; the fault reverts after
}

// Schedule is a full chaos timeline, JSON-serializable for replay.
type Schedule struct {
	Events []Event `json:"events"`
}

// Validate checks every event against the number of shards available.
func (s *Schedule) Validate(shards int) error {
	for i, e := range s.Events {
		switch e.Kind {
		case EventBurst503:
			if e.Rate <= 0 || e.Rate > 1 {
				return fmt.Errorf("loadgen: event %d: burst503 rate %v outside (0,1]", i, e.Rate)
			}
		case EventLatency:
			if e.Delay <= 0 {
				return fmt.Errorf("loadgen: event %d: latency event needs a positive delay", i)
			}
		case EventPartition, EventKill:
		default:
			return fmt.Errorf("loadgen: event %d: unknown kind %q", i, e.Kind)
		}
		if e.Shard < 0 || e.Shard >= shards {
			return fmt.Errorf("loadgen: event %d: shard %d outside [0,%d)", i, e.Shard, shards)
		}
		if e.At < 0 {
			return fmt.Errorf("loadgen: event %d: negative start offset", i)
		}
		if e.For <= 0 {
			return fmt.Errorf("loadgen: event %d: window must be positive", i)
		}
	}
	return nil
}

// End returns when the last fault reverts.
func (s *Schedule) End() time.Duration {
	var end time.Duration
	for _, e := range s.Events {
		if t := time.Duration(e.At) + time.Duration(e.For); t > end {
			end = t
		}
	}
	return end
}

// GateSchedule is the builtin schedule TestSoakChaosZipf runs against a
// 3-shard cluster: a full 503 blackout on shard 0, a partial burst on
// shard 1, then a partition of shard 2 — staggered so the replica quorum
// (R=3, W=2) always has two healthy shards and a retrying client should
// see zero terminal failures. The final ~30% of the run is fault-free so
// breakers demonstrably recover before stats are read.
func GateSchedule(total time.Duration) *Schedule {
	frac := func(f float64) Duration { return Duration(time.Duration(f * float64(total))) }
	return &Schedule{Events: []Event{
		{At: frac(0.10), Kind: EventBurst503, Shard: 0, Rate: 1.0, For: frac(0.16)},
		{At: frac(0.32), Kind: EventBurst503, Shard: 1, Rate: 0.5, For: frac(0.12)},
		{At: frac(0.50), Kind: EventPartition, Shard: 2, For: frac(0.16)},
	}}
}

// Hooks is what a chaos schedule drives. SelfCluster implements it
// in-process; an external harness could implement it with iptables and
// kill(1).
type Hooks interface {
	// Shards reports how many shards exist (for Validate).
	Shards() int
	// Burst503 sets the 503 injection rate on a shard; 0 clears it.
	Burst503(shard int, rate float64)
	// Latency sets the per-request added delay on a shard; 0 clears it.
	Latency(shard int, d time.Duration)
	// Partition makes the shard unreachable; Heal reverses it.
	Partition(shard int)
	Heal(shard int)
	// Kill stops the shard's listener; Restart brings it back on the
	// same address.
	Kill(shard int) error
	Restart(shard int) error
}

// scheduledAction is one timeline step: an apply or a revert.
type scheduledAction struct {
	at     time.Duration
	event  int
	revert bool
	run    func() error
	desc   string
}

// RunSchedule executes the schedule against the hooks in real time,
// applying each fault at its offset and reverting it when its window ends.
// It returns after the last revert, or — when ctx is canceled mid-window —
// after reverting every fault already applied, so a truncated run never
// leaves a shard faulted. logf (may be nil) narrates each step.
func RunSchedule(ctx context.Context, s *Schedule, h Hooks, logf func(string, ...any)) error {
	if err := s.Validate(h.Shards()); err != nil {
		return err
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	actions := make([]scheduledAction, 0, 2*len(s.Events))
	for i, e := range s.Events {
		i, e := i, e
		apply, revert, desc := actionsFor(e, h)
		actions = append(actions,
			scheduledAction{at: time.Duration(e.At), event: i, run: apply, desc: desc},
			scheduledAction{at: time.Duration(e.At) + time.Duration(e.For), event: i, revert: true, run: revert, desc: "revert " + desc},
		)
	}
	sort.SliceStable(actions, func(i, j int) bool { return actions[i].at < actions[j].at })

	start := time.Now()
	applied := make(map[int]func() error) // event index -> pending revert
	var firstErr error
	for _, a := range actions {
		select {
		case <-time.After(time.Until(start.Add(a.at))):
		case <-ctx.Done():
			// Truncated: revert everything still in effect, then stop.
			for i, rv := range applied {
				if err := rv(); err != nil && firstErr == nil {
					firstErr = err
				}
				delete(applied, i)
			}
			return firstErr
		}
		logf("chaos t=%v: %s", a.at.Round(time.Millisecond), a.desc)
		if err := a.run(); err != nil && firstErr == nil {
			firstErr = err
		}
		if a.revert {
			delete(applied, a.event)
		} else {
			applied[a.event] = revertFor(s.Events[a.event], h)
		}
	}
	return firstErr
}

// actionsFor maps an event to its apply and revert closures.
func actionsFor(e Event, h Hooks) (apply, revert func() error, desc string) {
	switch e.Kind {
	case EventBurst503:
		return func() error { h.Burst503(e.Shard, e.Rate); return nil },
			func() error { h.Burst503(e.Shard, 0); return nil },
			fmt.Sprintf("burst503 shard=%d rate=%.2f", e.Shard, e.Rate)
	case EventLatency:
		return func() error { h.Latency(e.Shard, time.Duration(e.Delay)); return nil },
			func() error { h.Latency(e.Shard, 0); return nil },
			fmt.Sprintf("latency shard=%d delay=%v", e.Shard, time.Duration(e.Delay))
	case EventPartition:
		return func() error { h.Partition(e.Shard); return nil },
			func() error { h.Heal(e.Shard); return nil },
			fmt.Sprintf("partition shard=%d", e.Shard)
	case EventKill:
		return func() error { return h.Kill(e.Shard) },
			func() error { return h.Restart(e.Shard) },
			fmt.Sprintf("kill shard=%d", e.Shard)
	}
	return func() error { return nil }, func() error { return nil }, "noop"
}

// revertFor returns just the revert closure for an event.
func revertFor(e Event, h Hooks) func() error {
	_, revert, _ := actionsFor(e, h)
	return revert
}
