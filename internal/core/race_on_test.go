//go:build race

package core

// raceEnabled reports whether the race detector instruments this build: it
// multiplies the cost of StepTimed's own atomics, so tests that compare
// timings skip their tolerances (never their exact counts) under it.
const raceEnabled = true
