//go:build !race

package benchgate

// Race is true when the race detector is built in.
const Race = false
