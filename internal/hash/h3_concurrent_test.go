package hash

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/pkt"
)

// TestAggHashesConcurrentReaders pins the read-only concurrency
// contract documented on H3: many goroutines bulk-hashing disjoint
// slices of the same packet run through one shared H3 must reproduce
// the sequential AggHashes output exactly. This is the property
// concurrent sketch fills lean on when they share an extractor's H3
// functions. Run under -race in CI.
func TestAggHashesConcurrentReaders(t *testing.T) {
	const n = 4096
	pkts := make([]pkt.Packet, n)
	rng := NewXorShift(77)
	for i := range pkts {
		pkts[i] = pkt.Packet{
			SrcIP:   uint32(rng.Uint64()),
			DstIP:   uint32(rng.Uint64()),
			SrcPort: uint16(rng.Uint64()),
			DstPort: uint16(rng.Uint64()),
			Proto:   uint8(rng.Uint64()),
		}
	}
	for a := 0; a < pkt.NumAggregates; a++ {
		h := NewH3(uint64(a) + 1)
		want := h.AggHashes(nil, pkts, pkt.Aggregate(a))

		const workers = 8
		chunk := (n + workers - 1) / workers
		out := make([][]uint64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lo := min(w*chunk, n)
				hi := min(lo+chunk, n)
				out[w] = h.AggHashes(nil, pkts[lo:hi], pkt.Aggregate(a))
			}(w)
		}
		wg.Wait()

		var got []uint64
		for _, part := range out {
			got = append(got, part...)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("aggregate %d: concurrent chunked AggHashes diverged from sequential", a)
		}
	}
}
