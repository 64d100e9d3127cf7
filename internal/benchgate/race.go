//go:build race

package benchgate

// Race is true when the race detector is built in. Its instrumentation
// slows code unevenly, so tests skip absolute time bounds and timing
// ratios under it; allocation counts and correctness bounds still run.
const Race = true
