package custom

import "repro/internal/queries"

// ShedderQuery is a query that implements the custom shedding contract,
// the type the misbehaving wrappers below decorate.
type ShedderQuery interface {
	queries.Query
	Shedder
}

// selfish wraps a custom-shedding query and silently ignores every shed
// request — the adversary of §6.3.4 that tries to keep its full share of
// the CPU. The enforcement policy must detect and police it.
type selfish struct {
	ShedderQuery
}

// NewSelfish returns a selfish clone of q.
func NewSelfish(q ShedderQuery) ShedderQuery { return &selfish{ShedderQuery: q} }

// Name implements queries.Query, marking the clone.
func (s *selfish) Name() string { return s.ShedderQuery.Name() + "-selfish" }

// ShedTo implements Shedder by doing nothing: the query pretends to
// comply while continuing to process everything.
func (s *selfish) ShedTo(float64) {}

// buggy wraps a custom-shedding query whose shedding implementation is
// broken (§6.3.5): it sheds far less than asked, as an incorrectly
// implemented load shedding method would.
type buggy struct {
	ShedderQuery
}

// NewBuggy returns a buggy clone of q.
func NewBuggy(q ShedderQuery) ShedderQuery { return &buggy{ShedderQuery: q} }

// Name implements queries.Query, marking the clone.
func (b *buggy) Name() string { return b.ShedderQuery.Name() + "-buggy" }

// ShedTo implements Shedder incorrectly: the requested fraction is
// inflated so the query sheds roughly a third of what it should.
func (b *buggy) ShedTo(frac float64) {
	f := frac*0.7 + 0.3 // always keeps at least 30% effort too much
	if f > 1 {
		f = 1
	}
	b.ShedderQuery.ShedTo(f)
}
