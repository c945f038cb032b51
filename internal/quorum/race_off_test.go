//go:build !race

package quorum

const raceDetector = false
