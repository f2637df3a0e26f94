//go:build race

package ringcore

// The enumeration runs one goroutine, so the race detector has nothing
// to find in it and only slows it about twentyfold: a race build runs
// the -short depths.
func init() { modelShallow = true }
