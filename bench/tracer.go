package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/pkt"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/pkg/loadshed"
)

// Span kinds. A boundary span is taken at a call the engine really
// made (into the Source or the Sink the benchmark handed it) and lies
// inside its parent's interval, so self time = span minus boundary
// children. A probe span is a shadow call the benchmark made itself,
// after the bin, on the same input; it names the bin as its parent but
// is not part of the bin's wall time.
const (
	kindRoot = iota
	kindBoundary
	kindProbe
)

var kindNames = [...]string{"root", "boundary", "probe"}

// span holds no pointers (its name is an index into the tracer's name
// table), so the garbage collector never scans the span buffer.
type span struct {
	id, parent int64
	start, end time.Duration // since tracer start
	shard      int32
	name       uint16
	kind       uint8
}

// tracer keeps spans in a preallocated buffer and writes them out when
// the run ends; a full buffer drops and counts.
type tracer struct {
	t0      time.Time
	spans   []span
	names   []string
	nameIdx map[string]uint16
	nextID  int64
	dropped int
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), nameIdx: map[string]uint16{}, nextID: 1 << 40}
}

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// add records a finished span; id 0 allocates one.
func (t *tracer) add(id, parent int64, shard int, kind uint8, name string, start, end time.Duration) {
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	n, ok := t.nameIdx[name]
	if !ok {
		n = uint16(len(t.names))
		t.names = append(t.names, name)
		t.nameIdx[name] = n
	}
	t.spans = append(t.spans, span{id, parent, start, end, int32(shard), n, kind})
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,shard,kind,name,start_ns,end_ns")
	for i := range t.spans {
		s := &t.spans[i]
		fmt.Fprintf(w, "%d,%d,%d,%s,%s,%d,%d\n", s.id, s.parent, s.shard, kindNames[s.kind], t.names[s.name], s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// binClock is the only instrumentation of an untraced run: it stands
// between the engine and the production sink (RollingStats), stamps
// each OnBin, and checks the per-bin packet conservation invariant.
// It stays transient so the engine keeps its zero-allocation path.
type binClock struct {
	inner *loadshed.RollingStats
	// ticks marks the sink whose OnBin closes a round: the only sink of
	// a single system, the last shard's of a lockstep cluster.
	ticks bool
	ck    *clockShared
}

// clockShared is the state the sinks of one replay share. A cluster
// steps its shards inline (Runners 1), so no locking is needed.
type clockShared struct {
	last   time.Time
	deltas []int64 // ns between consecutive round completions, per nominal-size round
	raw    []int64 // the same, as the clock saw them
	passes []int   // index in deltas at which each pass begins
	// nominal is the packets one round carries at the presets' configured
	// rates. A bin's time is scaled by nominal ÷ the packets it actually
	// carried: seeds differ by ±10 % in traffic volume and more in
	// burstiness, and bin time is proportional to bin size, so unscaled
	// percentiles would measure the seed.
	nominal   float64
	roundPkts int // packets of the round in progress, over all shards
	wire      int64
	drops     int64
	bins      int64
	conserved bool // WirePkts == AdmitPkts + DropPkts on every bin
	allFull   bool // every per-query rate was exactly 1
}

func newClockShared() *clockShared {
	return &clockShared{deltas: make([]int64, 0, 1<<20), raw: make([]int64, 0, 1<<20), conserved: true, allFull: true}
}

// reset clears everything observed so far, keeping the buffer.
func (c *clockShared) reset() {
	*c = clockShared{deltas: c.deltas[:0], raw: c.raw[:0], passes: c.passes[:0], nominal: c.nominal, conserved: true, allFull: true}
}

// startPass forgets the previous stamp: the gap between two passes
// (final flush, runner set-up) is not a bin.
func (c *clockShared) startPass() {
	c.last = time.Time{}
	c.passes = append(c.passes, len(c.deltas))
}

// perPass returns, for every pass, the p-th percentile of its bin
// times in milliseconds, scaled by the pass's host-speed factor.
func (c *clockShared) perPass(p float64, factors []float64) []float64 {
	out := make([]float64, 0, len(c.passes))
	for i, lo := range c.passes {
		hi := len(c.deltas)
		if i+1 < len(c.passes) {
			hi = c.passes[i+1]
		}
		if hi > lo && i < len(factors) {
			out = append(out, stats.Percentile(durationsMs(c.deltas[lo:hi]), p)*factors[i])
		}
	}
	return out
}

func (s *binClock) OnQuery(i int, name string) { s.inner.OnQuery(i, name) }

func (s *binClock) OnBin(b *loadshed.BinStats) {
	s.inner.OnBin(b)
	c := s.ck
	c.wire += int64(b.WirePkts)
	c.roundPkts += b.WirePkts
	c.drops += int64(b.DropPkts)
	c.bins++
	if b.WirePkts != b.AdmitPkts+b.DropPkts {
		c.conserved = false
	}
	for _, r := range b.Rates {
		if r != 1 {
			c.allFull = false
		}
	}
	if !s.ticks {
		return
	}
	now := time.Now()
	if !c.last.IsZero() && len(c.deltas) < cap(c.deltas) && c.roundPkts > 0 {
		d := now.Sub(c.last)
		c.raw = append(c.raw, int64(d))
		c.deltas = append(c.deltas, int64(float64(d)*c.nominal/float64(c.roundPkts)))
	}
	c.last, c.roundPkts = now, 0
}

func (s *binClock) OnInterval(iv *loadshed.IntervalResults) { s.inner.OnInterval(iv) }

// SinkTransient implements loadshed.TransientSink.
func (s *binClock) SinkTransient() bool { return true }

// tap is the traced run's instrumentation of one shard: a Source
// wrapper and a Sink wrapper that record boundary spans around the
// calls the engine makes, and hand each bin's batch and BinStats to
// the shadow probes.
type tap struct {
	tr      *tracer
	shard   int
	on      bool // spans and probes recorded only while set
	src     trace.Source
	sink    loadshed.Sink // the binClock of this shard
	shadow  *shadow
	loop    int64
	binsPer int64

	idx       int64 // bin index within the pass
	binStart  time.Duration
	nextEnd   time.Duration
	batch     pkt.Batch
	children  time.Duration // boundary children of the open bin
	selfSum   time.Duration // Σ engine self time
	selfN     int64
	nextSum   time.Duration
	sinkBin   time.Duration
	sinkIv    time.Duration
	intervals int64
}

func (t *tap) binID() int64 { return (t.loop*t.binsPer+t.idx)<<4 | int64(t.shard) }

// NextBatch implements trace.Source.
func (t *tap) NextBatch() (pkt.Batch, bool) {
	if !t.on {
		return t.src.NextBatch()
	}
	start := t.tr.now()
	b, ok := t.src.NextBatch()
	end := t.tr.now()
	if ok {
		t.binStart, t.nextEnd, t.batch = start, end, b
		t.children = end - start
		t.nextSum += end - start
	}
	return b, ok
}

// Reset implements trace.Source.
func (t *tap) Reset() { t.src.Reset(); t.idx = 0 }

// TimeBin implements trace.Source.
func (t *tap) TimeBin() time.Duration { return t.src.TimeBin() }

func (t *tap) OnQuery(i int, name string) {
	t.sink.OnQuery(i, name)
	t.shadow.onQuery(i, name)
}

func (t *tap) OnBin(b *loadshed.BinStats) {
	if !t.on {
		t.sink.OnBin(b)
		return
	}
	s0 := t.tr.now()
	t.sink.OnBin(b)
	end := t.tr.now()
	id := t.binID()
	t.tr.add(id, 0, t.shard, kindRoot, "bin", t.binStart, end)
	t.tr.add(0, id, t.shard, kindBoundary, "trace.next", t.binStart, t.nextEnd)
	t.tr.add(0, id, t.shard, kindBoundary, "sink.bin", s0, end)
	t.sinkBin += end - s0
	t.children += end - s0
	t.selfSum += (end - t.binStart) - t.children
	t.selfN++
	if t.idx%probeEvery == 0 {
		admitted := t.batch
		admitted.Pkts = admitted.Pkts[:b.AdmitPkts]
		t.shadow.bin(id, admitted, b)
	}
	t.idx++
}

func (t *tap) OnInterval(iv *loadshed.IntervalResults) {
	if !t.on {
		t.sink.OnInterval(iv)
		return
	}
	s0 := t.tr.now()
	t.sink.OnInterval(iv)
	end := t.tr.now()
	// The flush that closes an interval runs after the next bin's
	// NextBatch, inside that bin's root span.
	t.tr.add(0, t.binID(), t.shard, kindBoundary, "sink.interval", s0, end)
	t.children += end - s0
	t.sinkIv += end - s0
	t.intervals++
	t.shadow.interval(t.binID())
}

// SinkTransient implements loadshed.TransientSink.
func (t *tap) SinkTransient() bool { return true }
