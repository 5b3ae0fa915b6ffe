package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestNondeterm(t *testing.T) {
	analysistest.Run(t, analysis.Nondeterm, "nondeterm")
}

func TestFloatReduce(t *testing.T) {
	analysistest.Run(t, analysis.FloatReduce, "floatreduce")
}

func TestObsGate(t *testing.T) {
	analysistest.Run(t, analysis.ObsGate, "obsgate")
}

// TestLoaderRetriesFailedLoad pins that a failed load leaves no cycle
// guard behind: asking again must report the real error, not a false
// import cycle.
func TestLoaderRetriesFailedLoad(t *testing.T) {
	ldr := analysis.NewLoader(t.TempDir(), t.TempDir())
	_, first := ldr.Load("repro/missing")
	_, second := ldr.Load("repro/missing")
	if first == nil || second == nil || first.Error() != second.Error() {
		t.Fatalf("loading a missing package twice: first %v, then %v", first, second)
	}
}
