package lockorder_test

import (
	"testing"

	"hugeomp/internal/lint/analysistest"
	"hugeomp/internal/lint/lockorder"
)

func TestLockOrder(t *testing.T) {
	defer func(order string, pkgs []string) {
		lockorder.Order, lockorder.Packages = order, pkgs
	}(lockorder.Order, lockorder.Packages)
	lockorder.Order = "L2.mu < Shard < Cache"
	lockorder.Packages = []string{"a"}

	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "a")
}

// TestHotpath runs the hot-path defer rule on a package outside
// lockorder.Packages: unlike the ordering rules, it binds every package.
func TestHotpath(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "hotpath")
}
