package predict

import (
	"slices"

	"repro/internal/features"
)

// FCBF is the FCBF selection of cols (one slice per candidate feature)
// for response y on a throwaway scratch.
func FCBF(cols [][]float64, y []float64, threshold float64) []int {
	var sc fcbfScratch
	return sc.selectInto(nil, cols, y, threshold, nil)
}

// column returns feature j across the stored observations in slot
// order, in a freshly allocated slice.
func (h *History) column(j int) []float64 { return slices.Clone(h.cols[j][:h.len()]) }

// Costs returns the stored costs in slot order, matching column, in a
// freshly allocated slice.
func (h *History) Costs() []float64 { return slices.Clone(h.costs[:h.len()]) }

// corr is |stats.Pearson| of columns a and b from the scratch's centred
// forms: one phase-2 correlation.
func (sc *fcbfScratch) corr(a, b int) float64 {
	var r [1]float64
	sc.corrs(a, []int{b}, r[:])
	return r[0]
}

// featureIndex is the vector index of the feature features.Name calls
// name.
func featureIndex(name string) int {
	for i := range features.NumFeatures {
		if features.Name(i) == name {
			return i
		}
	}
	panic("no feature " + name)
}
