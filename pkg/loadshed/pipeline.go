package loadshed

// pipeline.go — preparing a bin, and the two-deep bin pipeline
// (DESIGN.md, "Bin pipeline").
//
// Every bin is prepared one way, by binSlot.fill: capture the batch,
// index its wire packets' flows and, on predictive runs, sketch them
// (hashing every flow's aggregate keys into the batch bitmaps). The
// stages then read the bin's index through the admitted batch's Flows
// and its sketch through binContext.sketch, both the slot's. Only who
// fills the slot differs. At Workers = 1 the run goroutine fills one
// slot inline before the bin's stages.
//
// Workers >= 2 overlaps the fill with the bin before it. The stages are
// not independent — admit(N+1) reads the governor delay that
// feedback(N) wrote, and Predict(N+1) reads the MLR history that
// execute(N)'s Observe calls appended to — but the fill is a pure
// function of the captured batch. A front goroutine fills ring slots
// ahead; the back stage (the caller's goroutine) runs admit → … →
// feedback for bin N in strict bin order while the front fills bin N+1.
//
// Speculation: the slot's index and sketch are the wire batch's, but
// both are defined over the admitted batch. Admission is a prefix —
// tail drop loses the newest packets — so admit truncates the index to
// the admitted prefix and extractPredict validates the sketch by packet
// count, truncating it too on a DAG-drop bin. The fill runs before
// admission on either path, so both see the same index and sketch.
//
// Ring ownership: two binSlots cycle between a free and a ready
// channel. A slot is owned by the front goroutine from free-receive to
// ready-send, and by the back stage from ready-receive to free-send;
// the channel operations carry the happens-before edges, so neither
// side ever reads the other's generation of batch, index or sketch.

import (
	"sync"
	"sync/atomic"

	"repro/internal/features"
	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/trace"
)

// pipelined reports whether a run under this config uses the two-deep
// bin pipeline. Workers == 1 selects the strictly sequential loop; the
// two paths are bit-identical, so the choice is purely about
// throughput.
func (c Config) pipelined() bool { return c.Workers >= 2 }

// binSlot is one bin's prepared input: a captured batch, the flow index
// of its wire packets and, on predictive runs, their sketch.
type binSlot struct {
	batch  pkt.Batch
	ok     bool // false: end of trace, batch/flows/sketch are meaningless
	flows  *pkt.FlowIndex
	sketch *features.Sketch
	ext    *features.Extractor // sketches the fill; nil on non-predictive runs
}

// fill prepares the slot for the bin of batch b (ok false at end of
// trace): it indexes the wire packets' flows and, on predictive runs,
// sketches them. It reads only the extractor's hash tables, so the
// front goroutine may fill while the back stage extracts. Sources hand
// off stable batches (see trace.Source), so the slot holds the batch
// without copying.
func (sl *binSlot) fill(b pkt.Batch, ok bool) {
	sl.batch, sl.ok = b, ok
	if !ok {
		return
	}
	sl.batch.IndexInto(sl.flows)
	if sl.ext != nil {
		sl.ext.SketchFlows(sl.sketch, sl.flows)
	}
}

// pipeline is the ring and the front stage's teardown channels. Slots
// and channels persist on the System across runs; the front goroutine
// is per-run, so an idle System holds no goroutines. The sequential
// loop fills slots[0] and leaves the channels unused.
type pipeline struct {
	slots [2]binSlot
	free  chan *binSlot
	ready chan *binSlot

	// quit/frontDone are per-run teardown channels: stop closes quit so
	// a front goroutine whose back stage was cancelled (and therefore
	// stopped freeing slots) unblocks from its free-receive, and waits on
	// frontDone. On a natural end of trace the front has already
	// returned and the wait is immediate.
	quit      chan struct{}
	frontDone chan struct{}
}

// ensurePipeline lazily builds the persistent ring.
func (s *System) ensurePipeline() *pipeline {
	if s.pipe == nil {
		p := &pipeline{
			free:  make(chan *binSlot, 2),
			ready: make(chan *binSlot, 2),
		}
		for i := range p.slots {
			p.slots[i].flows = pkt.NewFlowIndex(hash.FlowSalt(s.cfg.Seed))
			p.slots[i].sketch = features.NewSketch()
			if s.cfg.Scheme == Predictive {
				p.slots[i].ext = s.globalExt
			}
		}
		s.pipe = p
	}
	return s.pipe
}

// begin arms the ring for one run and starts the front stage: both
// slots on free (draining whatever a cancelled previous run left in the
// channels) and the front goroutine pulling from src. The front exits
// on its own when the source is exhausted, after handing the back stage
// an ok=false slot; a cancelled run instead tears it down through the
// quit channel.
func (p *pipeline) begin(src trace.Source) {
	for len(p.free) > 0 {
		<-p.free
	}
	for len(p.ready) > 0 {
		<-p.ready
	}
	p.free <- &p.slots[0]
	p.free <- &p.slots[1]
	p.quit = make(chan struct{})
	p.frontDone = make(chan struct{})
	go p.front(src)
}

// stop quits the front stage and waits for it to return. After a
// natural end of trace the front has already exited and stop returns
// immediately; after a cancellation it returns as soon as the front
// observes quit — at its next free-receive, or after its in-flight
// src.NextBatch/fill completes (bounded for every Source; live
// listeners are additionally closed by the caller to unblock a silent
// link).
func (p *pipeline) stop() {
	close(p.quit)
	<-p.frontDone
}

// front is the pipeline's producer loop: fill the next free slot and
// hand it over. It is the source's only consumer, so batch order — and
// with it every downstream RNG and history stream — is exactly the
// sequential engine's.
func (p *pipeline) front(src trace.Source) {
	defer close(p.frontDone)
	for {
		// Only the free-receive can block indefinitely (a cancelled back
		// stage stops freeing slots), so it is the quit point. The
		// ready-send below never blocks: the channel's buffer equals the
		// slot count, so there is always room for every slot in existence.
		var slot *binSlot
		select {
		case slot = <-p.free:
		case <-p.quit:
			return
		}
		slot.fill(src.NextBatch())
		p.ready <- slot
		if !slot.ok {
			return
		}
	}
}

// staticPool is the engine's one worker pool: a persistent fixed-size
// set of goroutines that, together with the calling goroutine, run
// fn(0) … fn(n-1), handing indices out through an atomic counter. The
// execute stage and the Cluster's shard runners use it; determinism is
// the caller's contract — fn(i) must touch only index-owned state. run
// is zero-alloc when fn is prebuilt. A nil *staticPool is the pool with
// no helpers: run executes every index on the caller, which is how an
// execute stage of one goroutine and Runners = 1 stay inline without a
// second code path at the call sites.
type staticPool struct {
	workers int
	fn      func(int)
	n       int
	next    atomic.Int64
	start   chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup
}

// newStaticPool starts workers helper goroutines (the caller of run is
// the pool's remaining worker); with none to start it returns nil.
func newStaticPool(workers int) *staticPool {
	if workers <= 0 {
		return nil
	}
	p := &staticPool{
		workers: workers,
		start:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	for k := 0; k < workers; k++ {
		go p.worker()
	}
	return p
}

func (p *staticPool) worker() {
	for {
		select {
		case <-p.start:
		case <-p.done:
			return
		}
		for {
			i := int(p.next.Add(1)) - 1
			if i >= p.n {
				break
			}
			p.fn(i)
		}
		p.wg.Done()
	}
}

// run executes fn(0) … fn(n-1) across the pool's workers and the
// calling goroutine, returning when all have finished. One run at a
// time; the caller owns the pool.
func (p *staticPool) run(n int, fn func(int)) {
	if p == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.fn, p.n = fn, n
	p.next.Store(0)
	p.wg.Add(p.workers)
	for k := 0; k < p.workers; k++ {
		p.start <- struct{}{}
	}
	for {
		i := int(p.next.Add(1)) - 1
		if i >= n {
			break
		}
		fn(i)
	}
	p.wg.Wait()
}

// close releases the pool's goroutines. The pool must be idle.
func (p *staticPool) close() {
	if p != nil {
		close(p.done)
	}
}
