//go:build race

package udpio

// The race detector makes sync.Pool drop a random share of Put items, so
// pooled send arenas are re-allocated and allocation counts are not
// meaningful under -race.
func init() { raceEnabled = true }
