//go:build !race

package xpaxos

const raceDetector = false
