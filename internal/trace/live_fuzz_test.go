package trace

import (
	"bytes"
	"testing"

	"repro/internal/pkt"
)

// FuzzLiveFrames feeds arbitrary datagrams to the live listener's frame
// decoder — the bytes any host that can reach the ingest socket
// controls. Nothing may panic, no accepted payload exceeds pkt.SnapLen,
// the framing is canonical (the accepted packets re-encode through
// appendFrame to exactly the bytes the decoder consumed), every payload
// is the datagram's own bytes at its frame's offset with no capacity
// beyond them (decoding aliases, it must never reach outside the frame),
// and BadFrames rises by one iff the datagram was not consumed to its
// end.
func FuzzLiveFrames(f *testing.F) {
	clean := appendFrame(nil, &pkt.Packet{Ts: 1, SrcIP: 2, DstIP: 3, SrcPort: 4, DstPort: 5, Proto: 6, TCPFlags: 0x12, Size: 1500})
	clean = appendFrame(clean, &pkt.Packet{Ts: 7, Proto: 17, Size: 60, Payload: []byte("GET / HTTP/1.1")})
	f.Add(clean)
	f.Add(clean[:len(clean)-1])                                              // last frame cut short
	f.Add(append(bytes.Clone(clean), 0))                                     // one stray byte
	f.Add(appendFrame(nil, &pkt.Packet{Payload: make([]byte, pkt.SnapLen)})) // largest payload accepted
	f.Add([]byte{recordHdrLen - 1, 0})                                       // frame shorter than a record header
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		l := &LiveSource{}
		got := l.decodeFrames(data, nil)
		var again []byte
		for i := range got {
			pl := got[i].Payload
			if len(pl) > pkt.SnapLen {
				t.Fatalf("packet %d accepted with a %d-byte payload", i, len(pl))
			}
			if off := len(again) + 2 + recordHdrLen; len(pl) > 0 && (off+len(pl) > len(data) || &pl[0] != &data[off] || cap(pl) != len(pl)) {
				t.Fatalf("packet %d's payload (len %d, cap %d) is not data[%d:%d]", i, len(pl), cap(pl), off, off+len(pl))
			}
			again = appendFrame(again, &got[i])
		}
		if !bytes.HasPrefix(data, again) {
			t.Fatalf("accepted packets re-encode to % x, not a prefix of % x", again, data)
		}
		wantBad := int64(0)
		if len(again) != len(data) {
			wantBad = 1
		}
		if bad := l.BadFrames(); bad != wantBad {
			t.Fatalf("BadFrames = %d after consuming %d of %d bytes", bad, len(again), len(data))
		}
	})
}
