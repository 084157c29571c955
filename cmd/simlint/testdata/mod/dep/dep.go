// Package dep sits outside the determinism scope: its wall-clock read is
// not reported, but its summary carries the taint to its callers.
package dep

import "time"

// Stamp launders the host clock through a return value.
func Stamp() int64 { return time.Now().UnixNano() }
