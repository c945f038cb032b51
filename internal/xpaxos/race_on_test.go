//go:build race

package xpaxos

// raceDetector reports that the test binary runs under -race, whose
// instrumentation makes allocation counts unreliable.
const raceDetector = true
