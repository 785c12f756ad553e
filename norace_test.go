//go:build !race

package cobra_test

const raceEnabled = false
