package control

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// TestCoordWireGoldenBytes pins the coordinator link's byte stream: one
// frame of each of the eight message types, hex for hex, and the spill
// header that heads every state-directory file. Round trips
// alone cannot tell a codec change that moves both sides together from
// one that keeps the format, and a mixed-version cluster only works
// under the latter.
func TestCoordWireGoldenBytes(t *testing.T) {
	nonce := bytes.Repeat([]byte{0x5a}, coordNonceLen)
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"hello", appendHelloFrame(nil, "uplink-7", 0.25),
			"1200010875706c696e6b2d37000000000000d03f"},
		{"report", appendReportFrame(nil, DemandReport{Bin: 42, Demand: 1.5e6, MinShare: 0.25, Done: true}),
			"1a00022a000000000000000000000060e33641000000000000d03f01"},
		{"grant", appendGrantFrame(nil, BudgetGrant{Round: 9, Capacity: 7.25e6}),
			"11000309000000000000000000000014a85b41"},
		{"checkpoint", appendCheckpointFrame(nil, 100, true, 4096),
			"0e000464000000000000000100100000"},
		{"adopt", appendAdoptFrame(nil, "mon-b", 200, maxCheckpointBytes),
			"130005056d6f6e2d62c80000000000000000000004"},
		{"helloAuth", appendHelloAuthFrame(nil, "uplink-7", 0.25, "golden-key", nonce),
			"3200060875706c696e6b2d37000000000000d03fc33281415cce3b0da02ea5ce7af7706ec9cef67edf8756cce390f67cdaf4859f"},
		{"drain", appendDrainFrame(nil),
			"010007"},
		{"challenge", appendChallengeFrame(nil, nonce),
			"1100085a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a"},
		{"spill", appendSpillFrame(nil, "mon-b", 200, true, 4096),
			"140009056d6f6e2d62c8000000000000000100100000"},
	} {
		if got := hex.EncodeToString(tc.frame); got != tc.want {
			t.Errorf("%s frame:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
