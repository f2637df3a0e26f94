//go:build race

package wfqueue

// The enumeration runs one goroutine, so the race detector has nothing
// to find in it and only slows it down: a race build runs the -short
// depth.
func init() { chanModelShallow = true }
