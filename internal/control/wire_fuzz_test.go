package control

import (
	"bufio"
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzCoordWire feeds arbitrary byte streams through the coordinator
// link's frame reader and every header decoder — the bytes a TCP peer
// controls, and the spill header a state directory's files carry. Nothing may panic, no header may announce a blob beyond
// maxCheckpointBytes, every decoded float is finite and >= 0 (they feed
// the allocator and setCapacity undigested), and the encoding is
// canonical: a frame a decoder accepts re-encodes through its
// append*Frame to the same bytes, so there is exactly one wire form per
// message.
func FuzzCoordWire(f *testing.F) {
	const key = "fuzz-key"
	nonce := bytes.Repeat([]byte{0x5a}, coordNonceLen)

	var seed []byte
	seed = appendHelloFrame(seed, "mon-a", 0.25)
	seed = appendReportFrame(seed, DemandReport{Bin: 41, Demand: 3e6, MinShare: 0.1})
	seed = appendReportFrame(seed, DemandReport{Bin: 42, Done: true})
	seed = appendGrantFrame(seed, BudgetGrant{Round: 9, Capacity: 2.5e6})
	seed = appendCheckpointFrame(seed, 100, true, 4096)
	seed = appendAdoptFrame(seed, "mon-b", 200, maxCheckpointBytes)
	seed = appendHelloAuthFrame(seed, "mon-a", 0.25, key, nonce)
	seed = appendDrainFrame(seed)
	seed = appendChallengeFrame(seed, nonce)
	seed = appendSpillFrame(seed, "mon-b", 200, true, 4096)
	f.Add(seed)
	f.Add(appendCheckpointFrame(nil, 1, false, maxCheckpointBytes+1))
	f.Add(appendAdoptFrame(nil, "", 1, 1))
	f.Add(appendReportFrame(nil, DemandReport{})[:20])                    // truncated mid-frame
	f.Add(appendAdoptFrame(nil, strings.Repeat("n", coordMaxName), 7, 9)) // longest name the u8 length carries
	f.Add([]byte{1, 0, coordMsgHello})
	f.Add([]byte{0, 0})

	quantity := func(t *testing.T, what string, v float64) {
		if !(v >= 0) || math.IsInf(v, 1) {
			t.Fatalf("accepted frame carries %s = %v", what, v)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			p, err := readCoordFrame(br, buf)
			if err != nil {
				return
			}
			buf = p
			if len(p) == 0 {
				continue
			}
			var again []byte
			switch p[0] {
			case coordMsgHello:
				name, minShare, ok := decodeHello(p)
				if !ok {
					continue
				}
				quantity(t, "hello min share", minShare)
				again = appendHelloFrame(nil, name, minShare)
			case coordMsgReport:
				r, ok := decodeReport(p)
				if !ok {
					continue
				}
				quantity(t, "report demand", r.Demand)
				quantity(t, "report min share", r.MinShare)
				again = appendReportFrame(nil, r)
			case coordMsgGrant:
				g, ok := decodeGrant(p)
				if !ok {
					continue
				}
				quantity(t, "grant capacity", g.Capacity)
				again = appendGrantFrame(nil, g)
			case coordMsgCheckpoint:
				bin, final, blobLen, ok := decodeCheckpointHdr(p)
				if !ok {
					continue
				}
				if blobLen < 0 || blobLen > maxCheckpointBytes {
					t.Fatalf("checkpoint header accepted with blobLen %d", blobLen)
				}
				again = appendCheckpointFrame(nil, bin, final, blobLen)
			case coordMsgAdopt:
				shard, bin, blobLen, ok := decodeAdoptHdr(p)
				if !ok {
					continue
				}
				if blobLen < 0 || blobLen > maxCheckpointBytes {
					t.Fatalf("adopt header accepted with blobLen %d", blobLen)
				}
				again = appendAdoptFrame(nil, shard, bin, blobLen)
			case coordMsgSpill:
				shard, bin, final, blobLen, ok := decodeSpillHdr(p)
				if !ok {
					continue
				}
				if blobLen < 0 || blobLen > maxCheckpointBytes {
					t.Fatalf("spill header accepted with blobLen %d", blobLen)
				}
				again = appendSpillFrame(nil, shard, bin, final, blobLen)
			case coordMsgHelloAuth:
				name, minShare, ok := decodeHelloAuth(p, key, nonce)
				if !ok {
					continue
				}
				quantity(t, "hello min share", minShare)
				again = appendHelloAuthFrame(nil, name, minShare, key, nonce)
			default:
				continue
			}
			if !bytes.Equal(again[2:], p) {
				t.Fatalf("accepted frame % x re-encodes to % x", p, again[2:])
			}
		}
	})
}
