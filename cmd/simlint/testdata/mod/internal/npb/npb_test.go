package npb

import (
	"testing"
	"time"
)

// Test files are outside the simlint contracts: this wall-clock read must
// not be reported.
func TestClock(t *testing.T) {
	if time.Now().IsZero() {
		t.Fatal("zero clock")
	}
}
