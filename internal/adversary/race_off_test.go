//go:build !race

package adversary_test

const raceDetector = false
