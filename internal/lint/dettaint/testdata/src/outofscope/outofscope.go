// A package outside dettaint.Packages: the determinism contract does not
// apply (the bench harness reads the host clock on purpose).
package outofscope

import "time"

func Elapsed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}
