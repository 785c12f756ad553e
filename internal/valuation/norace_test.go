//go:build !race

package valuation

const raceEnabled = false
