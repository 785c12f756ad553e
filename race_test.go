//go:build race

package cobra_test

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so a pin on pooled scratch cannot hold.
const raceEnabled = true
