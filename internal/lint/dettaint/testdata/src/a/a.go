// Corpus for the dettaint analyzer. The test configures
// SinkTypes = "Counters" and SinkFuncs = "a.Key". Every direct source call
// is reported at the call, sunk or not; lines that also feed a sink carry a
// second want for the taint path.
package a

import (
	"context"
	"math/rand"
	"runtime"
	"time"
)

// Counters stands in for the profile counter types (a sink type).
type Counters struct {
	N uint64
	T int64
}

func (c *Counters) Add(v int64) { c.T += v }

// Key stands in for the memoization key builders (a sink func).
func Key(parts ...int64) int64 {
	var k int64
	for _, p := range parts {
		k = k*31 + p
	}
	return k
}

// --- negative controls ------------------------------------------------------

// Deterministic values into a sink are fine.
func goodAdd(c *Counters, cycles int64) {
	c.Add(cycles)
	c.Add(42)
}

// A seeded *rand.Rand owned by the run is deterministic: constructors and
// method draws are not sources (only the package-level generator is).
func seededRand(c *Counters) {
	rng := rand.New(rand.NewSource(7))
	c.Add(rng.Int63())
}

// A seeded generator owned by the caller is the sanctioned randomness.
func seeded(r *rand.Rand) int64 { return r.Int63() }

// Pure duration arithmetic reads no clock.
func scale(d time.Duration) time.Duration { return 2 * d }

// context.Context values are sanitized: service deadline contexts carry wall
// clock by design and never feed simulation results.
func viaContext(c *Counters, ctx context.Context) {
	d, _ := ctx.Deadline()
	_ = d
	c.Add(0)
}

// --- direct source calls -----------------------------------------------------

// A wall-clock read is reported at the call even with no sink contact.
func clocks() time.Duration {
	t := time.Now()      // want `wall-clock read time\.Now`
	return time.Since(t) // want `wall-clock read time\.Since`
}

// --- direct source → sink ---------------------------------------------------

func direct(c *Counters) {
	c.Add(time.Now().UnixNano()) // want `non-deterministic value flows into \(\*a\.Counters\)\.Add.*time\.Now` `wall-clock read time\.Now`
}

func schedState(c *Counters) {
	c.Add(int64(runtime.NumGoroutine())) // want `runtime\.NumGoroutine.*scheduler` `scheduler/host-state read runtime\.NumGoroutine`
}

func globalRand(c *Counters) {
	c.Add(rand.Int63()) // want `global math/rand` `global rand\.Int63`
}

// --- laundering through a helper return value -------------------------------

// stamp launders the wall clock through a return value; its summary carries
// the source chain.
func stamp() int64 {
	return time.Now().UnixNano() // want `wall-clock read time\.Now`
}

func laundered(c *Counters) {
	c.Add(stamp()) // want `flows into \(\*a\.Counters\)\.Add.*time\.Now.*returned by a\.stamp`
}

// Two levels: the chain threads both helpers.
func restamp() int64 { return stamp() }

func laundered2(c *Counters) {
	c.Add(restamp()) // want `time\.Now.*returned by a\.restamp`
}

// --- laundering through a struct field --------------------------------------

type result struct {
	cycles int64
	when   int64
}

func fielded(c *Counters) {
	r := result{when: stamp()}
	c.Add(r.when) // want `time\.Now`
}

// --- parameter sinks: the sink is inside the callee -------------------------

// sinkParam's summary says "param 1 reaches (*a.Counters).Add".
func sinkParam(c *Counters, v int64) {
	c.Add(v)
}

func callsSinkParam(c *Counters) {
	sinkParam(c, stamp()) // want `time\.Now.*call a\.sinkParam`
}

// Passing a clean value through the same parameter sink is fine.
func callsSinkParamClean(c *Counters, v int64) {
	sinkParam(c, v)
}

// --- map iteration order ----------------------------------------------------

func mapOrder(c *Counters, m map[int]int64) {
	var last int64
	for _, v := range m {
		last = v
	}
	c.Add(last) // want `map iteration order`
}

// --- sink functions ---------------------------------------------------------

func goodKey(n int64) int64 {
	return Key(n, 7)
}

func badKey() int64 {
	return Key(time.Now().UnixNano()) // want `flows into a\.Key.*time\.Now` `wall-clock read time\.Now`
}

// --- keyed map rebuild ------------------------------------------------------

// Copying a map into another map under the iteration key is the same
// container whatever the order: the rebuild idiom stops map-order taint.
func rebuild(c *Counters, src map[int]int64) {
	dst := make(map[int]int64, len(src))
	for k, v := range src {
		dst[k] = v
	}
	c.Add(dst[0])
}

// The exemption is only about iteration ORDER: a wall-clock value stored
// under a map key still taints the container.
func rebuildStamped(c *Counters, src map[int]int64) {
	dst := make(map[int]int64, len(src))
	for k := range src {
		dst[k] = time.Now().UnixNano() // want `wall-clock read time\.Now`
	}
	c.Add(dst[0]) // want `non-deterministic value flows into \(\*a\.Counters\)\.Add.*time\.Now`
}
