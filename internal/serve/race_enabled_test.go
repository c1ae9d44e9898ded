//go:build race

package serve

// raceEnabled skips the allocation-count gates under the race detector,
// where sync.Pool drops a random quarter of its Puts.
const raceEnabled = true
