package queries

import (
	"bytes"
	"time"

	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/sampling"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------
// p2p-detector — signature-based P2P flow detection ([121, 83], cost:
// high). This is the flagship query of Chapter 6: it is *not* robust to
// traffic sampling (a dropped first data packet loses the signature for
// good), so it ships a custom load shedding method.

// p2pSignatures are the payload signatures the detector matches,
// aligned with what the traffic generator embeds.
var p2pSignatures = [][]byte{trace.SigBitTorrent, trace.SigGnutella, trace.SigED2K}

// isP2PPort reports whether p is one of the canonical P2P ports used by
// the fallback heuristic. It sits on the per-packet path for every
// custom-shed flow, so it compiles to a handful of compares instead of
// the map probe (hash, bucket walk, possible cache miss) it replaced.
func isP2PPort(p uint16) bool {
	switch p {
	case 6881, 6346, 4662, 1214:
		return true
	}
	return false
}

// p2pInspectPackets is how many payload-carrying packets per flow are
// scanned before the flow is declared non-P2P.
const p2pInspectPackets = 2

// p2pResult is the per-interval answer: the set of flows identified as
// P2P plus the (scaled, when the custom shedder is active) estimated
// count.
type p2pResult struct {
	Detected map[pkt.FlowKey]bool
	Count    float64
}

type p2pFlowState struct {
	key       pkt.FlowKey
	inspected uint8
	isP2P     bool
	decided   bool
}

// p2pDetector tracks per-flow state and scans the first payload packets
// of each flow against the signature set. Cost is dominated by the
// per-byte signature scan, making it the most expensive query in the
// set (Figure 2.2).
//
// Custom load shedding (Chapter 6): when ShedTo(f) is called with
// f < 1, the detector inspects payloads only for the fraction f of
// flows selected by a hash of the flow key, and classifies the rest by
// the port heuristic alone — far cheaper, and far more accurate than
// dropping packets, because every flow still gets classified.
type p2pDetector struct {
	cfg   Config
	h3    *hash.H3
	flows pkt.FlowTable
	bin   binFlows
	// states[i] belongs to the flow whose id in flows is i; truncated,
	// not freed, at flush.
	states       []p2pFlowState
	inspectFrac  float64
	sigDetected  float64
	portDetected float64
}

// NewP2PDetector returns a P2P detector.
func NewP2PDetector(cfg Config) *p2pDetector {
	return &p2pDetector{
		cfg:         cfg,
		h3:          hash.NewH3(cfg.Seed + 0x9279),
		flows:       pkt.NewFlowTable(hash.FlowSalt(cfg.Seed)),
		bin:         newBinFlows(cfg.Seed),
		inspectFrac: 1,
	}
}

// Name implements Query.
func (q *p2pDetector) Name() string { return "p2p-detector" }

// Method implements Query: the detector asks for custom shedding.
func (q *p2pDetector) Method() sampling.Method { return sampling.Custom }

// MinRate implements Query (Table 6.1 scenario; the detector tolerates
// moderate shedding through its custom method).
func (q *p2pDetector) MinRate() float64 { return 0.30 }

// Interval implements Query.
func (q *p2pDetector) Interval() time.Duration { return q.cfg.interval() }

// ShedTo implements the custom load shedding contract of Chapter 6: the
// system asks the query to reduce its resource usage to fraction f of
// the unshed load; the detector responds by restricting payload
// inspection to a hash-selected fraction of flows.
func (q *p2pDetector) ShedTo(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	q.inspectFrac = f
}

// inspects reports whether p's flow is in the hash-selected fraction
// whose payloads are scanned. HashAgg over the 5-tuple is Hash of the
// serialised FlowKey by contract, so the selection is H3.Unit's.
func (q *p2pDetector) inspects(p *pkt.Packet) bool {
	if q.inspectFrac >= 1 {
		return true
	}
	if q.inspectFrac <= 0 {
		return false
	}
	return float64(q.h3.HashAgg(p, pkt.Agg5Tuple)>>11)/float64(1<<53) < q.inspectFrac
}

// Process implements Query. The flow table is probed once per flow of
// the view, through the bin's flow index (see binFlows); a new flow is
// classified from its key.
func (q *p2pDetector) Process(b *pkt.Batch, _ float64) Ops {
	n := b.Packets()
	if n == 0 {
		return Ops{}
	}
	var ops Ops
	x := q.bin.index(b)
	memo := q.bin.memo
	for j := range n {
		i := at(b.Sel, j)
		p := &b.Pkts[i]
		f := x.ID[i]
		if memo[f] == 0 {
			k := &x.Keys[f]
			fi, inserted := q.flows.Insert(pkt.FlowWords(k))
			memo[f] = fi + 1
			if inserted {
				ops.Inserts++
				st := p2pFlowState{key: k.FlowKey()}
				if !q.inspects(k) {
					// Custom-shed flow: classify by port alone, now.
					st.decided = true
					if isP2PPort(k.DstPort) {
						st.isP2P = true
						q.portDetected++
					}
				}
				q.states = append(q.states, st)
			}
		}
		st := &q.states[memo[f]-1]
		if st.decided || len(p.Payload) == 0 {
			continue
		}
		// Signature scan of an undecided, inspected flow.
		ops.Bytes += int64(len(p.Payload)) * int64(len(p2pSignatures))
		for _, sig := range p2pSignatures {
			if bytes.Contains(p.Payload, sig) {
				st.isP2P = true
				st.decided = true
				q.sigDetected++
				break
			}
		}
		if !st.decided {
			st.inspected++
			if st.inspected >= p2pInspectPackets {
				st.decided = true // non-P2P: signatures absent
			}
		}
	}
	ops.Lookups = int64(n)
	ops.Packets = int64(n)
	return ops
}

// Flush implements Query.
func (q *p2pDetector) Flush() (Result, Ops) { return q.FlushInto(nil) }

// FlushInto implements ResultRecycler: the flow table is reset in
// place, the state slice truncated, and the detected set — the keys of
// the interval's states — reuses prev's map when given. Reported values
// are identical to Flush's.
func (q *p2pDetector) FlushInto(prev Result) (Result, Ops) {
	var detected map[pkt.FlowKey]bool
	if p, ok := prev.(p2pResult); ok && p.Detected != nil {
		detected = p.Detected
		clear(detected)
	} else {
		detected = make(map[pkt.FlowKey]bool)
	}
	for i := range q.states {
		if st := &q.states[i]; st.isP2P {
			detected[st.key] = true
		}
	}
	count := q.sigDetected + q.portDetected
	n := int64(q.flows.Len())
	q.clearFlows()
	return p2pResult{Detected: detected, Count: count}, Ops{Flushes: n}
}

func (q *p2pDetector) clearFlows() {
	q.flows.Reset()
	q.states = q.states[:0]
	q.sigDetected, q.portDetected = 0, 0
}

// Error implements Query: one minus the fraction of the reference's
// P2P flows correctly identified (§2.2.1).
func (q *p2pDetector) Error(got, ref Result) float64 {
	g, r := got.(p2pResult), ref.(p2pResult)
	if len(r.Detected) == 0 {
		return 0
	}
	hits := 0
	for k := range g.Detected {
		if r.Detected[k] {
			hits++
		}
	}
	return 1 - float64(hits)/float64(len(r.Detected))
}

// Reset implements Query.
func (q *p2pDetector) Reset() {
	q.clearFlows()
	q.inspectFrac = 1
}
