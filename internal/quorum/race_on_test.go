//go:build race

package quorum

// raceDetector reports that the test binary runs under -race, whose
// instrumentation makes allocation counts unreliable.
const raceDetector = true
