//go:build race

package emu

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation and pool behavior distort allocation
// counts; the allocation-guard tests skip under it.
const raceEnabled = true
