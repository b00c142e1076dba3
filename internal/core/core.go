// Package core implements the decision logic of the predictive load
// shedding scheme (thesis Chapter 4, Algorithm 1): when to shed load,
// how much to shed, the EWMA corrections for prediction error and
// shedding overhead, and the TCP-slow-start-style buffer discovery that
// lets the system safely exceed its per-bin cycle budget while buffers
// absorb the delay.
package core

import "math"

// ewmaWeight is the weight α used for the error and overhead averages;
// the thesis sets it to 0.9 "to quickly react to changes" (§4.3).
const ewmaWeight = 0.9

// Governor tracks the controller state of Algorithm 1 across time bins.
// It is deliberately free of any knowledge about queries or traffic: it
// consumes aggregate cycle numbers and produces a shedding decision.
//
// The zero value is unusable; construct with NewGovernor.
type Governor struct {
	capacity float64 // cycles per time bin (time_bin × CPU frequency)

	errEWMA float64 // êrror — EWMA of past positive prediction error
	lsEWMA  float64 // l̂s_cycles — EWMA of load shedding overhead
	delay   float64 // cycles the system currently lags real time
	rtt     float64 // rtthresh — discovered safe delay budget
	ssthr   float64 // slow-start threshold (∞ until first loss)

	rttStep float64 // growth quantum for rtthresh
	rttCap  float64 // upper bound for rtthresh
}

// NewGovernor returns a governor for a system with the given per-bin
// cycle capacity.
func NewGovernor(capacity float64) *Governor {
	return &Governor{
		capacity: capacity,
		ssthr:    math.Inf(1),
		rttStep:  capacity * 0.01,
		rttCap:   capacity * 2,
	}
}

// Capacity returns the per-bin cycle budget.
func (g *Governor) Capacity() float64 { return g.capacity }

// SetCapacity changes the per-bin cycle budget (used by experiments
// that sweep the overload level K).
func (g *Governor) SetCapacity(c float64) {
	g.capacity = c
	g.rttStep = c * 0.01
	g.rttCap = c * 2
}

// SetRTTCap bounds the buffer-discovery threshold. The monitoring
// system sets it from the capture-buffer size so the discovered delay
// allowance can never walk the system into its drop region.
func (g *Governor) SetRTTCap(cycles float64) {
	if cycles < g.rttStep {
		cycles = g.rttStep
	}
	g.rttCap = cycles
	if g.rtt > g.rttCap {
		g.rtt = g.rttCap
	}
}

// State is the complete controller state of a Governor, exported so a
// monitor can be checkpointed and restored mid-deployment (shard drain/
// rebalance). Every field of Algorithm 1's controller is here: dropping
// any of them (delay and rtt especially, which carry across measurement
// intervals) would make a restored shard diverge from one that never
// restarted.
type State struct {
	Capacity float64
	ErrEWMA  float64
	LsEWMA   float64
	Delay    float64
	RTT      float64
	SSThr    float64
	RTTStep  float64
	RTTCap   float64
}

// Snapshot captures the controller state.
func (g *Governor) Snapshot() State {
	return State{
		Capacity: g.capacity,
		ErrEWMA:  g.errEWMA,
		LsEWMA:   g.lsEWMA,
		Delay:    g.delay,
		RTT:      g.rtt,
		SSThr:    g.ssthr,
		RTTStep:  g.rttStep,
		RTTCap:   g.rttCap,
	}
}

// Restore overwrites the controller with a state captured by Snapshot.
func (g *Governor) Restore(st State) {
	g.capacity = st.Capacity
	g.errEWMA = st.ErrEWMA
	g.lsEWMA = st.LsEWMA
	g.delay = st.Delay
	g.rtt = st.RTT
	g.ssthr = st.SSThr
	g.rttStep = st.RTTStep
	g.rttCap = st.RTTCap
}

// Delay returns the accumulated delay in cycles.
func (g *Governor) Delay() float64 { return g.delay }

// Avail computes the cycles available for query processing this bin
// (Algorithm 1, line 7): capacity minus platform and prediction
// overhead, corrected by the buffer-discovery allowance rtthresh minus
// the current delay.
func (g *Governor) Avail(overhead float64) float64 {
	return g.capacity - overhead + (g.rtt - g.delay)
}

// NeedShed reports whether load shedding is required (line 8): the
// error-inflated prediction exceeds the available cycles.
func (g *Governor) NeedShed(avail, predicted float64) bool {
	return avail < predicted*(1+g.errEWMA)
}

// Rate computes the global sampling rate (line 9): the fraction of the
// error-inflated predicted load that fits in the available cycles after
// reserving the shedding overhead.
func (g *Governor) Rate(avail, predicted float64) float64 {
	if predicted <= 0 {
		return 1
	}
	r := (avail - g.lsEWMA) / (predicted * (1 + g.errEWMA))
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// QueryBudget returns the cycle budget a per-query strategy (Chapter 5)
// may distribute: the available cycles minus the shedding overhead,
// deflated by the prediction-error margin.
func (g *Governor) QueryBudget(avail float64) float64 {
	b := (avail - g.lsEWMA) / (1 + g.errEWMA)
	if b < 0 {
		return 0
	}
	return b
}

// Feedback carries one bin's measurements back into the governor.
type Feedback struct {
	Predicted   float64 // Σ predicted query cycles at full rate
	AllocCycles float64 // Σ predicted query cycles at the applied rates
	UsedCycles  float64 // Σ cycles actually consumed by queries
	ShedCycles  float64 // cycles spent sampling and re-extracting features
	Overhead    float64 // platform + prediction subsystem cycles
	QueryAvail  float64 // the Avail() value used for the decision
	BufferLoss  bool    // capture buffer exceeded its occupancy limit
}

// Observe folds a bin's measurements into the controller state:
// prediction-error EWMA (line 17), shedding-overhead EWMA (line 13),
// the running delay, and the buffer-discovery threshold (§4.1).
func (g *Governor) Observe(fb Feedback) {
	// Prediction error: only under-prediction is dangerous, hence the
	// max(0, ·) — over-prediction wastes a little capacity but cannot
	// overflow buffers.
	// A bin where nothing was allocated (full shed) carries no signal
	// about prediction quality — the residual cost is the fixed
	// per-batch overhead, not a prediction miss.
	if fb.UsedCycles > 0 && fb.AllocCycles > 0 {
		instErr := math.Max(0, 1-fb.AllocCycles/fb.UsedCycles)
		g.errEWMA = ewmaWeight*instErr + (1-ewmaWeight)*g.errEWMA
	}
	g.lsEWMA = ewmaWeight*fb.ShedCycles + (1-ewmaWeight)*g.lsEWMA

	total := fb.Overhead + fb.ShedCycles + fb.UsedCycles
	g.delay = math.Max(0, g.delay+total-g.capacity)

	switch {
	case fb.BufferLoss:
		// Loss: back off like TCP — remember half the current threshold
		// and restart discovery from zero.
		g.ssthr = g.rtt / 2
		g.rtt = 0
	case fb.UsedCycles < fb.QueryAvail:
		// Queries left cycles on the table: the system can afford more
		// delay. Exponential growth below ssthr, linear above.
		if g.rtt < g.ssthr {
			g.rtt = math.Max(g.rttStep, 2*g.rtt)
		} else {
			g.rtt += g.rttStep
		}
		if g.rtt > g.rttCap {
			g.rtt = g.rttCap
		}
	}
}
