//go:build race

package adversary_test

// raceDetector reports that the test binary runs under -race, where
// sync.Pool drops a quarter of what it is given on purpose, so
// allocation budgets that count on pooled frames do not hold.
const raceDetector = true
