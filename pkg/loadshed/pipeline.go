package loadshed

// pipeline.go — the two-deep bin pipeline (DESIGN.md, "Bin pipeline").
//
// The sequential runner leaves cores idle between execute fan-outs:
// extraction for bin N+1 cannot start until feedback for bin N has run.
// The stages are not independent, though — admit(N+1) reads the
// governor delay that feedback(N) wrote, and Predict(N+1) reads the MLR
// history that execute(N)'s Observe calls appended to — so the pipeline
// overlaps only the one half of the bin that is a pure function of the
// captured batch: sketching (hashing every packet's aggregate keys into
// the batch bitmaps). A front goroutine pulls batches from the source
// and speculatively sketches each wire batch, chunk-parallel across the
// front half of Config.Workers; the back stage (the caller's goroutine)
// then runs admit → … → feedback for bin N in strict bin order, exactly
// as the sequential engine does, while the front works on bin N+1.
//
// Speculation: the front indexes the wire batch's flows and sketches
// it, but both are defined over the admitted batch. Admission is a
// prefix — tail drop loses the newest packets — so the back stage
// truncates the index to the admitted prefix and validates the sketch
// by packet count, truncating it too on the rare mis-speculation (a
// DAG-drop bin). Everything downstream of the index and the sketch
// therefore sees bit-identical state for any worker count.
//
// Ring ownership: two binSlots cycle between a free and a ready
// channel. A slot is owned by the front goroutine from free-receive to
// ready-send, and by the back stage from ready-receive to free-send;
// the channel operations carry the happens-before edges, so neither
// side ever reads the other's generation of batch, index or sketch.
// Each slot owns one FlowIndex and one Sketch (the two ping-ponged
// scratch generations); the System's own index and the extractor's
// internal sketch are untouched in pipelined runs, and every consumer
// reads the bin's index through the admitted batch's Flows and its
// sketch through BinContext.sketch, which point at whichever generation
// carried the bin.

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

// splitWorkers divides Config.Workers between the front-stage sketch
// pool and the back-stage execute pool: the front gets the floor half
// (at least one — the front goroutine itself), execute the rest. The
// split was chosen when sketching and query execution cost the same
// order of work per packet; see the table in DESIGN.md, "Bin pipeline".
// The sketch now hashes per distinct flow, so the front does less than
// that table shows.
func splitWorkers(w int) (front, execute int) {
	front = w / 2
	if front < 1 {
		front = 1
	}
	return front, w - front
}

// binSlot is one generation of the pipeline ring: a captured batch, the
// flow index of its wire packets and their speculative sketch.
type binSlot struct {
	batch    pkt.Batch
	ok       bool // false: end of trace, batch/flows/sketch are meaningless
	sketched bool // front sketched the wire batch (predictive runs only)
	flows    *pkt.FlowIndex
	sketch   *features.Sketch
}

// pipeline is the ring and the front stage's machinery. Slots, channels
// and the chunk sketcher persist on the System across runs; the worker
// pool and front goroutine are per-run, so an idle System holds no
// goroutines.
type pipeline struct {
	slots [2]binSlot
	free  chan *binSlot
	ready chan *binSlot

	// quit/frontDone are per-run teardown channels: stop closes quit so
	// a front goroutine whose back stage was cancelled (and therefore
	// stopped freeing slots) unblocks from its free-receive, and waits on
	// frontDone before releasing the pool. On a natural end of trace the
	// front has already returned and the wait is immediate.
	quit      chan struct{}
	frontDone chan struct{}

	frontWorkers int
	cs           *features.ChunkSketcher
	pool         *staticPool          // per-run helpers of the front goroutine
	runFn        func(int, func(int)) // p.pool.run, bound once per run
}

// ensurePipeline lazily builds the persistent half of the pipeline.
func (s *System) ensurePipeline() *pipeline {
	if s.pipe == nil {
		front, _ := splitWorkers(s.cfg.Workers)
		p := &pipeline{
			free:         make(chan *binSlot, 2),
			ready:        make(chan *binSlot, 2),
			frontWorkers: front,
			cs:           features.NewChunkSketcher(s.globalExt, front),
		}
		for i := range p.slots {
			p.slots[i].flows = pkt.NewFlowIndex(hash.FlowSalt(s.cfg.Seed))
			p.slots[i].sketch = features.NewSketch()
		}
		s.pipe = p
	}
	return s.pipe
}

// begin arms the ring for one run and starts the front stage: both
// slots on free (draining whatever a cancelled previous run left in the
// channels), a fresh helper pool (the front goroutine is the pool's
// missing worker), and the front goroutine pulling from src. The front
// exits on its own when the source is exhausted, after handing the back
// stage an ok=false slot; a cancelled run instead tears it down through
// the quit channel.
func (p *pipeline) begin(src trace.Source, sketch bool) {
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
	p.pool = newStaticPool(p.frontWorkers - 1)
	p.runFn = p.pool.run
	go p.front(src, sketch)
}

// stop tears down the per-run machinery: it quits the front stage, waits
// for it to return, then releases the pool. After a natural end of trace
// the front has already exited and stop returns immediately; after a
// cancellation it returns as soon as the front observes quit — at its
// next free-receive, or after its in-flight src.NextBatch/sketch
// completes (bounded for every Source; live listeners are additionally
// closed by the caller to unblock a silent link).
func (p *pipeline) stop() {
	close(p.quit)
	<-p.frontDone
	p.pool.close()
	p.pool, p.runFn = nil, nil
}

// front is the pipeline's producer loop: capture the next batch, index
// its wire packets' flows, speculatively sketch them (predictive runs),
// hand the slot over. It is the source's only consumer, so batch order
// — and with it every downstream RNG and history stream — is exactly
// the sequential engine's. Sources hand off stable batches (see
// trace.Source), so the slot holds the batch without copying.
func (p *pipeline) front(src trace.Source, sketch bool) {
	defer close(p.frontDone)
	for {
		// Only the free-receive can block indefinitely (a cancelled back
		// stage stops freeing slots), so it is the quit point. The
		// ready-sends below never block: the channel's buffer equals the
		// slot count, so there is always room for every slot in existence.
		var slot *binSlot
		select {
		case slot = <-p.free:
		case <-p.quit:
			return
		}
		b, ok := src.NextBatch()
		if !ok {
			slot.ok = false
			p.ready <- slot
			return
		}
		slot.batch, slot.ok, slot.sketched = b, true, sketch
		slot.batch.IndexInto(slot.flows)
		if sketch {
			p.cs.Fill(slot.sketch, slot.flows, p.runFn)
		}
		p.ready <- slot
	}
}

// staticPool is the engine's one worker pool: a persistent fixed-size
// set of goroutines that, together with the calling goroutine, run
// fn(0) … fn(n-1), handing indices out through an atomic counter. The
// front-stage sketcher, the execute stage and the Cluster's shard
// runners all use it; determinism is the caller's contract — fn(i) must
// touch only index-owned state. run is zero-alloc when fn is prebuilt.
// A nil *staticPool is the pool with no helpers: run executes every
// index on the caller, which is how Workers = 1 and Runners = 1 stay
// inline without a second code path at the call sites.
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
