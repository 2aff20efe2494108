//go:build !race

package exp

// raceDetectorEnabled mirrors whether this test binary was built with
// -race. The deterministic equivalence sweeps trim themselves under
// the detector: each cell costs ~10x there, and the full sweeps would
// push the package past go test's default timeout.
const raceDetectorEnabled = false
