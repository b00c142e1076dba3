package trace

import (
	"fmt"
	"time"

	"repro/internal/pkt"
)

// linkPreset pairs a link name with a traffic profile for multi-link
// (cluster) runs.
type linkPreset struct {
	Name   string
	Config Config
}

// AsymmetricMix returns n link profiles for the headline cluster
// scenario: link 0 is a CESCA-I-like link swamped by a spoofed on/off
// DDoS for the middle half of the run, while the remaining links carry
// calm CESCA-II-like traffic. Overload lands on exactly one link, so a
// per-link shedder must shed hard there while the others idle — the
// situation a global budget coordinator resolves by moving the idle
// links' cycles to the attacked one.
func AsymmetricMix(seed uint64, dur time.Duration, scale float64, n int) []linkPreset {
	if n < 1 {
		panic("trace: asymmetric mix needs at least 1 link")
	}
	out := make([]linkPreset, n)
	hot := CESCA1(seed, dur, scale)
	hot.Anomalies = []Anomaly{
		NewOnOffDDoS(dur/4, dur/2, 4*hot.PacketsPerSec, pkt.IPv4(147, 83, 1, 1)),
	}
	out[0] = linkPreset{Name: "ddos-link", Config: hot}
	for i := 1; i < n; i++ {
		cfg := CESCA2(seed+uint64(i)*0x9e37, dur, scale)
		out[i] = linkPreset{Name: fmt.Sprintf("calm-link%d", i), Config: cfg}
	}
	return out
}
