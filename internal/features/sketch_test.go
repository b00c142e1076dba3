package features

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/trace"
)

// sketchTrace records a couple of seconds of generator batches so the
// chunk-equivalence tests see real-ish key distributions, not toy rows.
func sketchTrace(t testing.TB) []pkt.Batch {
	g := trace.NewGenerator(trace.Config{Seed: 31, Duration: 2 * time.Second, PacketsPerSec: 6000})
	batches := trace.Record(g)
	if len(batches) == 0 {
		t.Fatal("generator produced no batches")
	}
	return batches
}

// inlineRun satisfies ChunkSketcher.Fill's run contract on the calling
// goroutine — the degenerate "pool" used to isolate chunking from
// concurrency.
func inlineRun(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// goRun fans fn out over real goroutines, the shape the engine's front
// stage uses.
func goRun(n int, fn func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(i)
	}
	wg.Wait()
}

// TestChunkSketchEquivalence is the determinism contract of the
// batch-parallel front stage: sketching a batch in k chunks and merging
// the staging bitmaps in index order must produce hash columns and
// vectors bit-identical to the sequential single-chunk sketch, for any k
// and whether the chunks run inline or on concurrent goroutines.
func TestChunkSketchEquivalence(t *testing.T) {
	batches := sketchTrace(t)
	for _, workers := range []int{1, 2, 3, 4, 7} {
		for _, mode := range []string{"inline", "goroutines"} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, mode), func(t *testing.T) {
				run := inlineRun
				if mode == "goroutines" {
					run = goRun
				}
				seqExt := NewExtractor(9)
				parExt := NewExtractor(9)
				cs := NewChunkSketcher(parExt, workers)
				seqSk, parSk := NewSketch(), NewSketch()
				seqExt.StartInterval()
				parExt.StartInterval()
				for _, b := range batches {
					seqExt.SketchInto(seqSk, b.Pkts)
					cs.Fill(parSk, b.Pkts, run)
					if seqSk.Pkts() != parSk.Pkts() {
						t.Fatalf("chunked sketch saw %d pkts, sequential %d", parSk.Pkts(), seqSk.Pkts())
					}
					for a := range seqSk.cols {
						if !slices.Equal(seqSk.cols[a], parSk.cols[a]) {
							t.Fatalf("chunked fill's %s hash column differs from the sequential fill's", pkt.Aggregate(a))
						}
					}
					np, nb := float64(b.Packets()), float64(b.Bytes())
					seqV := append(Vector(nil), seqExt.ExtractFromSketch(seqSk, np, nb)...)
					parV := append(Vector(nil), parExt.ExtractFromSketch(parSk, np, nb)...)
					if !reflect.DeepEqual(seqV, parV) {
						t.Fatalf("vectors diverged:\nseq %v\npar %v", seqV, parV)
					}
				}
				if !reflect.DeepEqual(seqExt.IntervalEstimates(), parExt.IntervalEstimates()) {
					t.Fatal("interval estimates diverged between sequential and chunked sketching")
				}
			})
		}
	}
}

// TestSketchMatchesExtract pins the sketch/finish split to the one-shot
// Extract path: SketchInto + ExtractFromSketch on a second extractor
// with the same seed must reproduce Extract bit for bit, including the
// Ops accounting the engine charges from sk.Ops().
func TestSketchMatchesExtract(t *testing.T) {
	batches := sketchTrace(t)
	whole := NewExtractor(4)
	split := NewExtractor(4)
	sk := NewSketch()
	whole.StartInterval()
	split.StartInterval()
	for _, b := range batches {
		want := append(Vector(nil), whole.Extract(&b)...)
		split.SketchInto(sk, b.Pkts)
		split.Ops += sk.Ops()
		got := split.ExtractFromSketch(sk, float64(b.Packets()), float64(b.Bytes()))
		if !reflect.DeepEqual(want, append(Vector(nil), got...)) {
			t.Fatalf("split extraction diverged from Extract:\nwant %v\ngot  %v", want, got)
		}
	}
	if whole.Ops != split.Ops {
		t.Fatalf("Ops accounting diverged: Extract %d, sketch path %d", whole.Ops, split.Ops)
	}
}

// TestChunkSketchFillAllocFree proves a warmed ChunkSketcher fills
// without allocating — the property that lets the pipelined front stage
// keep the PR 4-5 zero-alloc steady state.
func TestChunkSketchFillAllocFree(t *testing.T) {
	batches := sketchTrace(t)
	ext := NewExtractor(2)
	cs := NewChunkSketcher(ext, 4)
	dst := NewSketch()
	ext.StartInterval()
	cs.Fill(dst, batches[0].Pkts, inlineRun) // warm the hash columns
	allocs := testing.AllocsPerRun(20, func() {
		for _, b := range batches {
			cs.Fill(dst, b.Pkts, inlineRun)
			ext.ExtractFromSketch(dst, float64(b.Packets()), float64(b.Bytes()))
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed ChunkSketcher fill allocated %v times per run, want 0", allocs)
	}
}

// sameSketch fails the test unless got is want: the same packet and op
// counts, bitmaps equal field for field (both sides insert into cleared
// bitmaps, so even the per-component bookkeeping must agree), the same
// sealed estimates — each what its bitmap estimates — and, unless got is
// a selection's sketch (which keeps none), the same hash columns.
func sameSketch(t *testing.T, what string, got, want *Sketch) {
	t.Helper()
	if got.Pkts() != want.Pkts() || got.Ops() != want.Ops() {
		t.Fatalf("%s: Pkts/Ops = %d/%d, want %d/%d", what, got.Pkts(), got.Ops(), want.Pkts(), want.Ops())
	}
	for a := range want.cols {
		if got.cols[a] != nil && !slices.Equal(got.cols[a], want.cols[a]) {
			t.Fatalf("%s: hash column of %s differs", what, pkt.Aggregate(a))
		}
		if !reflect.DeepEqual(got.batch[a], want.batch[a]) {
			t.Fatalf("%s: bitmap of %s differs", what, pkt.Aggregate(a))
		}
		if e := got.batch[a].Estimate(); got.est[a] != want.est[a] || got.est[a] != e {
			t.Fatalf("%s: sealed estimate of %s = %v, want %v (its bitmap estimates %v)", what, pkt.Aggregate(a), got.est[a], want.est[a], e)
		}
	}
}

// halfOf is a stand-in for a packet sampler's selection out of n at a
// rate just under one half: ascending, irregular, deterministic.
func halfOf(n int) []int32 {
	rng := hash.NewXorShift(5)
	var idx []int32
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.49 {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// TestSketchSelectMatchesSketchOfSelection: gathering a selection out of
// a filled sketch's hash columns must produce exactly the sketch that
// hashing the selected packets would — the identity that lets the engine
// sketch its shed stream without a second extractor. The empty and the
// full selection are the edge cases.
func TestSketchSelectMatchesSketchOfSelection(t *testing.T) {
	ext := NewExtractor(6)
	full, got, want := NewSketch(), NewSketch(), NewSketch()
	for bi, b := range sketchTrace(t) {
		ext.SketchInto(full, b.Pkts)
		all := make([]int32, len(b.Pkts))
		for i := range all {
			all[i] = int32(i)
		}
		for name, idx := range map[string][]int32{"none": nil, "some": halfOf(len(b.Pkts)), "all": all} {
			picked := make([]pkt.Packet, len(idx))
			for j, i := range idx {
				picked[j] = b.Pkts[i]
			}
			ext.SketchInto(want, picked)
			full.SelectInto(got, idx)
			sameSketch(t, fmt.Sprintf("bin %d, %s", bi, name), got, want)
		}
	}
}

// TestSketchTruncateMatchesSketchOfPrefix: a DAG-drop bin keeps a prefix
// of the batch the front stage sketched; truncating that sketch must
// equal sketching the prefix afresh.
func TestSketchTruncateMatchesSketchOfPrefix(t *testing.T) {
	ext := NewExtractor(6)
	got, want := NewSketch(), NewSketch()
	for bi, b := range sketchTrace(t) {
		for _, n := range []int{0, 1, len(b.Pkts) / 2, len(b.Pkts)} {
			ext.SketchInto(got, b.Pkts)
			got.Truncate(n)
			ext.SketchInto(want, b.Pkts[:n])
			sameSketch(t, fmt.Sprintf("bin %d, prefix %d", bi, n), got, want)
		}
	}
}

// TestSketchSelectAllocFree: with warmed destinations, the engine's
// per-bin shed sketch (inserted straight from the bin's columns) and the
// DAG-drop truncation allocate nothing.
func TestSketchSelectAllocFree(t *testing.T) {
	b := sketchTrace(t)[0]
	ext := NewExtractor(2)
	full, shed, dropped := NewSketch(), NewSketch(), NewSketch()
	ext.SketchInto(full, b.Pkts)
	ext.SketchInto(dropped, b.Pkts)
	idx := halfOf(len(b.Pkts))
	full.SelectInto(shed, idx)
	if allocs := testing.AllocsPerRun(20, func() {
		full.SelectInto(shed, idx)
		ext.SketchInto(dropped, b.Pkts)
		dropped.Truncate(len(b.Pkts) / 2)
	}); allocs != 0 {
		t.Fatalf("warmed SelectInto + Truncate allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkShedSketch prices the shed path's sketch per 2500-packet bin
// at a rate near one half: inserting the selection straight from the
// bin's hash columns against hashing the gathered packets again.
func BenchmarkShedSketch(b *testing.B) {
	g := trace.NewGenerator(trace.Config{Seed: 31, Duration: time.Second, PacketsPerSec: 25000})
	pkts := trace.Record(g)[0].Pkts
	ext := NewExtractor(2)
	full, shed := NewSketch(), NewSketch()
	ext.SketchInto(full, pkts)
	idx := halfOf(len(pkts))
	b.Run("select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			full.SelectInto(shed, idx)
		}
	})
	picked := make([]pkt.Packet, len(idx))
	for j, i := range idx {
		picked[j] = pkts[i]
	}
	b.Run("rehash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ext.SketchInto(shed, picked)
		}
	})
}
