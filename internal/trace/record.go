package trace

import (
	"encoding/binary"

	"repro/internal/pkt"
)

// record.go — the packet record, the one layout trace files (file.go)
// and live frames (live.go) share (little endian):
//
//	ts i64, srcIP u32, dstIP u32, srcPort u16, dstPort u16,
//	proto u8, flags u8, size u32, payloadLen u16, payload

// recordHdrLen is the fixed-size prefix of a record: everything up to
// and including the u16 payload length.
const recordHdrLen = 28

// recordSize is the encoded size of p.
func recordSize(p *pkt.Packet) int { return recordHdrLen + len(p.Payload) }

// appendRecord encodes p onto dst. The caller has checked
// len(p.Payload) against the bound its medium imposes.
func appendRecord(dst []byte, p *pkt.Packet) []byte {
	var hdr [recordHdrLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(p.Ts))
	binary.LittleEndian.PutUint32(hdr[8:12], p.SrcIP)
	binary.LittleEndian.PutUint32(hdr[12:16], p.DstIP)
	binary.LittleEndian.PutUint16(hdr[16:18], p.SrcPort)
	binary.LittleEndian.PutUint16(hdr[18:20], p.DstPort)
	hdr[20] = p.Proto
	hdr[21] = p.TCPFlags
	binary.LittleEndian.PutUint32(hdr[22:26], uint32(p.Size))
	binary.LittleEndian.PutUint16(hdr[26:28], uint16(len(p.Payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, p.Payload...)
}

// decodeRecordHdr fills p's fixed fields from the first recordHdrLen
// bytes of hdr and returns the payload length that follows. Validating
// that length and attaching the payload is the caller's job — a file
// reads it from a stream, a datagram slices it.
func decodeRecordHdr(p *pkt.Packet, hdr []byte) (payloadLen int) {
	_ = hdr[recordHdrLen-1]
	p.Ts = int64(binary.LittleEndian.Uint64(hdr[0:8]))
	p.SrcIP = binary.LittleEndian.Uint32(hdr[8:12])
	p.DstIP = binary.LittleEndian.Uint32(hdr[12:16])
	p.SrcPort = binary.LittleEndian.Uint16(hdr[16:18])
	p.DstPort = binary.LittleEndian.Uint16(hdr[18:20])
	p.Proto = hdr[20]
	p.TCPFlags = hdr[21]
	p.Size = int(binary.LittleEndian.Uint32(hdr[22:26]))
	return int(binary.LittleEndian.Uint16(hdr[26:28]))
}
