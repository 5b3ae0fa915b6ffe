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
