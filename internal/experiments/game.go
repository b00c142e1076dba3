package experiments

// game.go models the resource allocation game of thesis §5.3–5.4 for
// the two Chapter 5 experiments that use it (ch5.go): queries are
// players whose action is the minimum CPU demand they claim
// (a_q = m_q·d̂_q) and whose payoff (Equation 5.7) is the number of
// cycles the max-min fair scheduler actually allocates. Theorem 5.1
// shows the game has a single Nash equilibrium where every player
// demands C/|Q|; this file verifies that computationally and runs the
// light/heavy accuracy simulations behind Figures 5.1 and 5.2.

import (
	"math"

	"repro/internal/sched"
)

// player is one query in the allocation game.
type player struct {
	Name   string
	Demand float64 // full-rate demand d̂_q in cycles
	Claim  float64 // claimed minimum demand a_q = m_q·d̂_q in cycles
}

// payoffs evaluates Equation 5.7 for every player under the given
// max-min strategy: the scheduler receives demands with minimum rates
// m_q = a_q/d̂_q and the payoff is each player's allocated cycles.
func payoffs(players []player, capacity float64, strat sched.Strategy) []float64 {
	demands := make([]sched.Demand, len(players))
	for i, p := range players {
		min := 0.0
		if p.Demand > 0 {
			min = p.Claim / p.Demand
		}
		if min > 1 {
			min = 1
		}
		if min < 0 {
			min = 0
		}
		demands[i] = sched.Demand{Name: p.Name, Cycles: p.Demand, MinRate: min}
	}
	allocs := sched.AllocateInto(strat, demands, capacity, new(sched.Workspace))
	out := make([]float64, len(players))
	for i, a := range allocs {
		out[i] = a.Cycles
	}
	return out
}

// bestResponse searches a claim grid for player i's payoff-maximizing
// action, holding every other player's claim fixed. It returns the best
// claim and its payoff.
func bestResponse(players []player, i int, capacity float64, strat sched.Strategy, gridSteps int) (claim, payoff float64) {
	best := -1.0
	bestClaim := 0.0
	maxClaim := players[i].Demand
	for s := 0; s <= gridSteps; s++ {
		c := maxClaim * float64(s) / float64(gridSteps)
		trial := make([]player, len(players))
		copy(trial, players)
		trial[i].Claim = c
		u := payoffs(trial, capacity, strat)[i]
		if u > best+1e-9 {
			best = u
			bestClaim = c
		}
	}
	return bestClaim, best
}

// gameEpsilon is the tolerance used by isEquilibrium: a profile is an
// ε-equilibrium when no unilateral deviation on the grid improves a
// player's payoff by more than ε relative to the capacity.
const gameEpsilon = 1e-6

// isEquilibrium reports whether the players' current claims form a Nash
// equilibrium up to grid resolution: no player can improve its payoff
// by deviating to any grid claim.
func isEquilibrium(players []player, capacity float64, strat sched.Strategy, gridSteps int) bool {
	base := payoffs(players, capacity, strat)
	for i := range players {
		_, best := bestResponse(players, i, capacity, strat, gridSteps)
		if best > base[i]+gameEpsilon*capacity {
			return false
		}
	}
	return true
}

// simQuery is a query in the Figure 5.1/5.2 accuracy simulation.
type simQuery struct {
	Name     string
	Cost     float64                    // cycles to process the interval at rate 1
	MinRate  float64                    // m_q
	Accuracy func(rate float64) float64 // accuracy as a function of the applied rate
}

// lightAccuracy is the simulated accuracy of the thesis' "light" query
// (§5.4): tolerant to sampling, emulating the counter query.
func lightAccuracy(rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	return 1 - (1-rate)*0.05
}

// heavyAccuracy is the simulated accuracy of the "heavy" query:
// proportional to the sampling rate, emulating the trace query.
func heavyAccuracy(rate float64) float64 {
	if rate < 0 {
		return 0
	}
	if rate > 1 {
		return 1
	}
	return rate
}

// simResult summarizes one simulated allocation.
type simResult struct {
	Avg   float64
	Min   float64
	Rates []float64
}

// simulate allocates capacity across the simulated queries with the
// given strategy and evaluates the resulting accuracies.
func simulate(qs []simQuery, capacity float64, strat sched.Strategy) simResult {
	demands := make([]sched.Demand, len(qs))
	for i, q := range qs {
		demands[i] = sched.Demand{Name: q.Name, Cycles: q.Cost, MinRate: q.MinRate}
	}
	allocs := sched.AllocateInto(strat, demands, capacity, new(sched.Workspace))
	res := simResult{Min: math.Inf(1), Rates: make([]float64, len(qs))}
	for i, a := range allocs {
		res.Rates[i] = a.Rate
		acc := qs[i].Accuracy(a.Rate)
		res.Avg += acc
		if acc < res.Min {
			res.Min = acc
		}
	}
	if len(qs) > 0 {
		res.Avg /= float64(len(qs))
	} else {
		res.Min = 0
	}
	return res
}

// lightHeavySet builds the §5.4 scenario: one heavy query ten times the
// cost of each of n light queries, all sharing the same minimum rate.
func lightHeavySet(nLight int, minRate float64) []simQuery {
	const lightCost = 100.0
	qs := []simQuery{{
		Name: "heavy", Cost: 10 * lightCost, MinRate: minRate, Accuracy: heavyAccuracy,
	}}
	for i := 0; i < nLight; i++ {
		qs = append(qs, simQuery{
			Name: "light", Cost: lightCost, MinRate: minRate, Accuracy: lightAccuracy,
		})
	}
	return qs
}

// totalCost sums the full-rate costs of the simulated queries.
func totalCost(qs []simQuery) float64 {
	var t float64
	for _, q := range qs {
		t += q.Cost
	}
	return t
}
