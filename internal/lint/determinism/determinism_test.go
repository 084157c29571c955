package determinism_test

import (
	"testing"

	"hugeomp/internal/lint/analysistest"
	"hugeomp/internal/lint/determinism"
	"hugeomp/internal/lint/dettaint"
)

func TestDeterminism(t *testing.T) {
	defer func(old []string) { dettaint.Packages = old }(dettaint.Packages)
	dettaint.Packages = []string{"a"}

	// Corpus "a" holds true positives and negatives of the map-range rule.
	analysistest.Run(t, analysistest.TestData(), determinism.Analyzer, "a")
}
