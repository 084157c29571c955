package dettaint_test

import (
	"testing"

	"hugeomp/internal/lint/analysistest"
	"hugeomp/internal/lint/dettaint"
)

func TestDetTaint(t *testing.T) {
	defer func(pkgs []string, st, sf string) {
		dettaint.Packages, dettaint.SinkTypes, dettaint.SinkFuncs = pkgs, st, sf
	}(dettaint.Packages, dettaint.SinkTypes, dettaint.SinkFuncs)
	dettaint.Packages = []string{"a"}
	dettaint.SinkTypes = "Counters"
	dettaint.SinkFuncs = "a.Key"

	analysistest.Run(t, analysistest.TestData(), dettaint.Analyzer, "a")

	// A package outside the simulator set is exempt even though it reads
	// the wall clock.
	analysistest.Run(t, analysistest.TestData(), dettaint.Analyzer, "outofscope")
}
