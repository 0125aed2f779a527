//go:build race

package dist

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates on paths that otherwise do
// not. Allocation-count pins skip under race; the -race pass still
// exercises the same code paths for data races.
const raceEnabled = true
