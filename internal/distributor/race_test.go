//go:build race

package distributor

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what is Put, so allocation counts through a pool mean nothing.
const raceEnabled = true
