//go:build !race

package distributor

const raceEnabled = false
