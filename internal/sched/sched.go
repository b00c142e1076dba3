// Package sched implements the load shedding strategies that decide
// *where* to shed load — which sampling rate each query receives for a
// batch, given its predicted demand, its minimum sampling rate
// constraint and the cycle budget.
//
// Three strategies are provided, matching the thesis evaluation:
//
//   - EqualRates: one global sampling rate for every query (Chapter 4),
//     optionally disabling queries whose minimum rate cannot be met
//     (the eq_srates baseline of §5.5.3).
//   - MMFSCPU: max-min fair share of CPU cycles with minimum-rate floors
//     (§5.2.1).
//   - MMFSPkt: max-min fair share of packet access (§5.2.2) — the
//     thesis' preferred strategy, because processed packets correlate
//     with accuracy better than allocated cycles.
//
// When the minimum demands Σ m_q·d̂_q exceed the capacity, all
// strategies disable queries largest-minimum-demand-first (§5.2.1),
// the rule that yields the Nash equilibrium of §5.3.
package sched

import (
	"math"
	"slices"
)

// Demand describes one query's state for a scheduling decision.
type Demand struct {
	Name    string
	Cycles  float64 // predicted cycles to process the batch at rate 1 (d̂_q)
	MinRate float64 // minimum sampling rate constraint (m_q)
}

// Allocation is a strategy's decision for one query, index-aligned with
// the input demands.
type Allocation struct {
	Rate   float64 // sampling rate in [0,1]; 0 means disabled this batch
	Cycles float64 // cycles allocated (Rate · d̂_q)
}

// Strategy selects per-query sampling rates subject to a cycle budget.
// Its allocation method is unexported: the three strategies of this
// package are the only implementations, called through AllocateInto.
type Strategy interface {
	Name() string
	allocate(demands []Demand, capacity float64, ws *Workspace) []Allocation
}

// Workspace holds the scratch buffers of an allocation decision so a
// per-bin caller (the load shedding engine decides every 100 ms)
// allocates nothing in steady state. The zero value is ready to use; a
// Workspace is not safe for concurrent use.
type Workspace struct {
	out    []Allocation
	active []bool
	items  []minItem
}

func (ws *Workspace) allocations(n int) []Allocation {
	if cap(ws.out) < n {
		ws.out = make([]Allocation, n)
	}
	out := ws.out[:n]
	clear(out)
	return out
}

// mask returns a length-n boolean scratch with unspecified contents;
// callers initialize every element.
func (ws *Workspace) mask(n int) []bool {
	if cap(ws.active) < n {
		ws.active = make([]bool, n)
	}
	return ws.active[:n]
}

// AllocateInto returns s's allocation of capacity over demands, with
// every intermediate — the result slice included — taken from ws. The
// returned slice is owned by ws and valid until its next use.
func AllocateInto(s Strategy, demands []Demand, capacity float64, ws *Workspace) []Allocation {
	return s.allocate(demands, capacity, ws)
}

type minItem struct {
	idx int
	min float64
}

// disableLargest deactivates queries until the remaining minimum
// demands fit in the capacity; it returns the active set as a boolean
// mask (owned by ws). Queries with the largest m_q·d̂_q go first, which
// penalizes over-claiming (§5.2.1).
func disableLargest(demands []Demand, capacity float64, ws *Workspace) []bool {
	active := ws.mask(len(demands))
	if cap(ws.items) < len(demands) {
		ws.items = make([]minItem, len(demands))
	}
	items := ws.items[:len(demands)]
	var sum float64
	for i, d := range demands {
		active[i] = true
		items[i] = minItem{idx: i, min: d.MinRate * d.Cycles}
		sum += items[i].min
	}
	if sum <= capacity {
		return active
	}
	// Largest minimum demand first; ties broken by name then index for
	// determinism.
	slices.SortFunc(items, func(a, b minItem) int {
		if a.min != b.min {
			if a.min > b.min {
				return -1
			}
			return 1
		}
		na, nb := demands[a.idx].Name, demands[b.idx].Name
		if na != nb {
			if na > nb {
				return -1
			}
			return 1
		}
		return b.idx - a.idx
	})
	for _, it := range items {
		if sum <= capacity {
			break
		}
		active[it.idx] = false
		sum -= it.min
	}
	return active
}

// EqualRates applies the same sampling rate to every query: the Chapter
// 4 behaviour. With RespectMinRates set, queries whose minimum exceeds
// the global rate are disabled for the batch and the rate is recomputed
// over the survivors (§5.5.3's eq_srates).
type EqualRates struct {
	RespectMinRates bool
}

// Name implements Strategy.
func (s EqualRates) Name() string {
	if s.RespectMinRates {
		return "eq_srates"
	}
	return "equal"
}

func (s EqualRates) allocate(demands []Demand, capacity float64, ws *Workspace) []Allocation {
	out := ws.allocations(len(demands))
	active := ws.mask(len(demands))
	for i := range active {
		active[i] = true
	}
	for {
		var total float64
		for i, d := range demands {
			if active[i] {
				total += d.Cycles
			}
		}
		rate := 1.0
		if total > capacity {
			rate = capacity / total
			if rate < 0 {
				rate = 0
			}
		}
		if !s.RespectMinRates {
			for i, d := range demands {
				out[i] = Allocation{Rate: rate, Cycles: rate * d.Cycles}
			}
			return out
		}
		// Disable every query whose minimum the global rate cannot
		// satisfy, then recompute for the survivors.
		changed := false
		for i, d := range demands {
			if active[i] && rate < d.MinRate {
				active[i] = false
				changed = true
			}
		}
		if !changed {
			for i, d := range demands {
				if active[i] {
					out[i] = Allocation{Rate: rate, Cycles: rate * d.Cycles}
				} else {
					out[i] = Allocation{}
				}
			}
			return out
		}
	}
}

// MMFSCPU allocates cycles max-min fairly with per-query floors
// m_q·d̂_q and ceilings d̂_q (§5.2.1). The water level λ such that
// Σ clamp(λ, floor, ceiling) = capacity is found by bisection.
type MMFSCPU struct{}

// Name implements Strategy.
func (MMFSCPU) Name() string { return "mmfs_cpu" }

func (MMFSCPU) allocate(demands []Demand, capacity float64, ws *Workspace) []Allocation {
	out := ws.allocations(len(demands))
	active := disableLargest(demands, capacity, ws)

	var sumFull, hi float64
	for i, d := range demands {
		if active[i] {
			sumFull += d.Cycles
			if d.Cycles > hi {
				hi = d.Cycles
			}
		}
	}
	fill := func(level float64) float64 {
		var sum float64
		for i, d := range demands {
			if !active[i] {
				continue
			}
			sum += clamp(level, d.MinRate*d.Cycles, d.Cycles)
		}
		return sum
	}
	level := hi
	if sumFull > capacity {
		lo := 0.0
		for iter := 0; iter < 64; iter++ {
			mid := (lo + level) / 2
			if fill(mid) > capacity {
				level = mid
			} else {
				lo = mid
			}
		}
	}
	for i, d := range demands {
		if !active[i] {
			continue
		}
		c := clamp(level, d.MinRate*d.Cycles, d.Cycles)
		rate := 1.0
		if d.Cycles > 0 {
			rate = c / d.Cycles
		}
		out[i] = Allocation{Rate: rate, Cycles: c}
	}
	return out
}

// MMFSPkt allocates sampling rates max-min fairly in terms of access to
// the packet stream (§5.2.2–5.2.3): one water-level rate r with
// per-query floors m_q and ceiling 1, such that Σ clamp(r, m_q, 1)·d̂_q
// equals the capacity.
type MMFSPkt struct{}

// Name implements Strategy.
func (MMFSPkt) Name() string { return "mmfs_pkt" }

func (MMFSPkt) allocate(demands []Demand, capacity float64, ws *Workspace) []Allocation {
	out := ws.allocations(len(demands))
	active := disableLargest(demands, capacity, ws)

	var sumFull float64
	for i, d := range demands {
		if active[i] {
			sumFull += d.Cycles
		}
	}
	spend := func(r float64) float64 {
		var sum float64
		for i, d := range demands {
			if !active[i] {
				continue
			}
			sum += clamp(r, d.MinRate, 1) * d.Cycles
		}
		return sum
	}
	rate := 1.0
	if sumFull > capacity {
		lo := 0.0
		for iter := 0; iter < 64; iter++ {
			mid := (lo + rate) / 2
			if spend(mid) > capacity {
				rate = mid
			} else {
				lo = mid
			}
		}
	}
	for i, d := range demands {
		if !active[i] {
			continue
		}
		r := clamp(rate, d.MinRate, 1)
		out[i] = Allocation{Rate: r, Cycles: r * d.Cycles}
	}
	return out
}

func clamp(x, lo, hi float64) float64 {
	if hi < lo {
		hi = lo
	}
	return math.Min(math.Max(x, lo), hi)
}
