package queries

import (
	"time"

	"repro/internal/pkt"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// ---------------------------------------------------------------------
// counter — traffic load in packets and bytes (Table 2.2, cost: low).

// counterResult is the counter query's per-interval answer: estimated
// (sampling-corrected) packet and byte totals.
type counterResult struct {
	Packets float64
	Bytes   float64
}

// counter counts packets and bytes per measurement interval, scaling by
// the inverse sampling rate to estimate its unsampled output.
type counter struct {
	cfg  Config
	pkts float64
	byts float64
}

// NewCounter returns a counter query.
func NewCounter(cfg Config) *counter { return &counter{cfg: cfg} }

// Name implements Query.
func (q *counter) Name() string { return "counter" }

// Method implements Query.
func (q *counter) Method() sampling.Method { return sampling.Packet }

// MinRate implements Query (Table 5.2).
func (q *counter) MinRate() float64 { return 0.03 }

// Interval implements Query.
func (q *counter) Interval() time.Duration { return q.cfg.interval() }

// Process implements Query.
func (q *counter) Process(b *pkt.Batch, rate float64) Ops {
	inv := 1.0
	if rate > 0 && rate < 1 {
		inv = 1 / rate
	}
	n := b.Packets()
	for i := range n {
		q.pkts += inv
		q.byts += float64(b.At(i).Size) * inv
	}
	return Ops{Packets: int64(n), Lookups: int64(n)}
}

// Flush implements Query.
func (q *counter) Flush() (Result, Ops) {
	r := counterResult{Packets: q.pkts, Bytes: q.byts}
	q.pkts, q.byts = 0, 0
	return r, Ops{Flushes: 2}
}

// Error implements Query: the mean of the packet and byte relative
// errors.
func (q *counter) Error(got, ref Result) float64 {
	g, r := got.(counterResult), ref.(counterResult)
	return (stats.RelErr(g.Packets, r.Packets) + stats.RelErr(g.Bytes, r.Bytes)) / 2
}

// Reset implements Query.
func (q *counter) Reset() { q.pkts, q.byts = 0, 0 }

// ---------------------------------------------------------------------
// application — port-based application classification (cost: low).

// appClass is a coarse application class assigned by port.
type appClass int

// application classes distinguished by the port map.
const (
	appWeb appClass = iota
	appDNS
	appMail
	appP2P
	appOther
	numAppClasses
)

var appNames = [numAppClasses]string{"web", "dns", "mail", "p2p", "other"}

// String returns the class name.
func (a appClass) String() string { return appNames[a] }

// classifyPort maps a destination port to an application class.
func classifyPort(dport uint16) appClass {
	switch dport {
	case 80, 443, 8080:
		return appWeb
	case 53:
		return appDNS
	case 25, 110, 143:
		return appMail
	case 6881, 6346, 4662, 1214:
		return appP2P
	default:
		return appOther
	}
}

// appCounts holds the estimated totals for one application class.
type appCounts struct {
	Packets float64
	Bytes   float64
}

// applicationResult is the per-interval breakdown by application class.
type applicationResult struct {
	Apps [numAppClasses]appCounts
}

// application classifies packets into application classes by port and
// accumulates scaled per-class packet and byte counts.
type application struct {
	cfg  Config
	apps [numAppClasses]appCounts
}

// NewApplication returns an application-breakdown query.
func NewApplication(cfg Config) *application { return &application{cfg: cfg} }

// Name implements Query.
func (q *application) Name() string { return "application" }

// Method implements Query.
func (q *application) Method() sampling.Method { return sampling.Packet }

// MinRate implements Query (Table 5.2).
func (q *application) MinRate() float64 { return 0.03 }

// Interval implements Query.
func (q *application) Interval() time.Duration { return q.cfg.interval() }

// Process implements Query.
func (q *application) Process(b *pkt.Batch, rate float64) Ops {
	inv := 1.0
	if rate > 0 && rate < 1 {
		inv = 1 / rate
	}
	n := b.Packets()
	for i := range n {
		p := b.At(i)
		a := classifyPort(p.DstPort)
		q.apps[a].Packets += inv
		q.apps[a].Bytes += float64(p.Size) * inv
	}
	return Ops{Packets: int64(n), Lookups: int64(n)}
}

// Flush implements Query.
func (q *application) Flush() (Result, Ops) {
	r := applicationResult{Apps: q.apps}
	q.apps = [numAppClasses]appCounts{}
	return r, Ops{Flushes: int64(numAppClasses)}
}

// Error implements Query: the average of per-class packet and byte
// relative errors weighted by the class's share of reference packets
// (§2.2.1).
func (q *application) Error(got, ref Result) float64 {
	g, r := got.(applicationResult), ref.(applicationResult)
	var totalRefPkts float64
	for _, c := range r.Apps {
		totalRefPkts += c.Packets
	}
	if totalRefPkts == 0 {
		return 0
	}
	var err float64
	for a := 0; a < int(numAppClasses); a++ {
		w := r.Apps[a].Packets / totalRefPkts
		e := (stats.RelErr(g.Apps[a].Packets, r.Apps[a].Packets) +
			stats.RelErr(g.Apps[a].Bytes, r.Apps[a].Bytes)) / 2
		err += w * e
	}
	return err
}

// Reset implements Query.
func (q *application) Reset() { q.apps = [numAppClasses]appCounts{} }

// ---------------------------------------------------------------------
// high-watermark — high watermark of link utilization (cost: low).

// hwmBucket is the sub-interval resolution at which utilization is
// tracked; the watermark is the maximum bucket volume in the interval.
const hwmBucket = 100 * time.Millisecond

// highWatermarkResult is the per-interval answer: the peak bytes seen in
// any single bucket, sampling-corrected.
type highWatermarkResult struct {
	WatermarkBytes float64
}

// highWatermark tracks the peak short-term link utilization per
// measurement interval.
type highWatermark struct {
	cfg     Config
	buckets map[int64]float64
}

// NewHighWatermark returns a high-watermark query.
func NewHighWatermark(cfg Config) *highWatermark {
	return &highWatermark{cfg: cfg, buckets: make(map[int64]float64)}
}

// Name implements Query.
func (q *highWatermark) Name() string { return "high-watermark" }

// Method implements Query.
func (q *highWatermark) Method() sampling.Method { return sampling.Packet }

// MinRate implements Query (Table 5.2).
func (q *highWatermark) MinRate() float64 { return 0.15 }

// Interval implements Query.
func (q *highWatermark) Interval() time.Duration { return q.cfg.interval() }

// Process implements Query.
func (q *highWatermark) Process(b *pkt.Batch, rate float64) Ops {
	inv := 1.0
	if rate > 0 && rate < 1 {
		inv = 1 / rate
	}
	n := b.Packets()
	if n == 0 {
		return Ops{}
	}
	// The bucket changes about once per bin, so its sum rides in a local
	// over each run of packets that share it and the map is touched only
	// where the run ends — the same additions, in the same order, into
	// the same accumulator as one `+=` per packet.
	key := b.At(0).Ts / int64(hwmBucket)
	sum := q.buckets[key]
	for i := range n {
		p := b.At(i)
		if k := p.Ts / int64(hwmBucket); k != key {
			q.buckets[key] = sum
			key, sum = k, q.buckets[k]
		}
		sum += float64(p.Size) * inv
	}
	q.buckets[key] = sum
	return Ops{Packets: int64(n), Lookups: int64(n)}
}

// Flush implements Query.
func (q *highWatermark) Flush() (Result, Ops) {
	var wm float64
	for _, v := range q.buckets {
		if v > wm {
			wm = v
		}
	}
	n := int64(len(q.buckets))
	clear(q.buckets)
	return highWatermarkResult{WatermarkBytes: wm}, Ops{Flushes: n}
}

// Error implements Query.
func (q *highWatermark) Error(got, ref Result) float64 {
	g, r := got.(highWatermarkResult), ref.(highWatermarkResult)
	return stats.RelErr(g.WatermarkBytes, r.WatermarkBytes)
}

// Reset implements Query.
func (q *highWatermark) Reset() { clear(q.buckets) }
