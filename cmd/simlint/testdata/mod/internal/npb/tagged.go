//go:build simlintfixture_excluded

package npb

import "time"

// Excluded is left out of the build by its tag, so its wall-clock read must
// not be reported.
func Excluded() int64 { return time.Now().UnixNano() }
