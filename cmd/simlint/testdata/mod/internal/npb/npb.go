// Package npb is in every simlint scope (its path ends in internal/npb).
// Each function seeds one finding for the driver test.
package npb

import (
	"sync"
	"time"

	"simlintfixture/dep"
)

// Counters is a determinism sink type.
type Counters struct{ T int64 }

func (c *Counters) Add(v int64) { c.T += v }

// Laundered reaches the sink through dep.Stamp's summary, which only the
// vetx fact files carry across the package boundary.
func Laundered(c *Counters) { c.Add(dep.Stamp()) }

// Elapsed reads the wall clock directly.
func Elapsed() time.Duration { return time.Since(time.Time{}) }

// Keys leaks map order into the slice it returns.
func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// Suppressed is the same leak under a reasoned ignore.
func Suppressed(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) //simlint:ignore determinism callers sort the result
	}
	return keys
}

var mu sync.Mutex

// Hot defers its unlock on a hot path.
//
//simlint:hotpath
func Hot() {
	mu.Lock()
	defer mu.Unlock()
}
