//go:build race

package exp

// raceDetectorEnabled: see norace_test.go for why the deterministic
// sweeps consult this.
const raceDetectorEnabled = true
