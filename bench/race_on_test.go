//go:build race

package main

// raceDetector reports that the test binary runs under -race, where the
// cluster is several times slower and lan-open's generator-honesty gate
// (a timing check) voids the run by design.
const raceDetector = true
