package predict

import "slices"

// FCBF is the FCBF selection of cols (one slice per candidate feature)
// for response y on a throwaway scratch.
func FCBF(cols [][]float64, y []float64, threshold float64) []int {
	var sc fcbfScratch
	return sc.selectInto(nil, cols, y, threshold, nil)
}

// Costs returns the stored costs in slot order, matching Column, in a
// freshly allocated slice.
func (h *History) Costs() []float64 { return slices.Clone(h.costs[:h.Len()]) }

// corr is |stats.Pearson| of columns a and b from the scratch's centred
// forms: one phase-2 correlation.
func (sc *fcbfScratch) corr(a, b int) float64 {
	var r [1]float64
	sc.corrs(a, []int{b}, r[:])
	return r[0]
}
