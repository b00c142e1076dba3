package trace

import (
	"encoding/binary"
	"time"

	"repro/internal/hash"
	"repro/internal/pkt"
)

// Anomaly injects synthetic attack traffic on top of the base stream.
// Implementations must be stateless with respect to bins: the generator
// hands them a bin-specific deterministic RNG, so replaying a trace
// reproduces the exact same attack packets regardless of call order.
type Anomaly interface {
	// Inject appends the anomaly's packets for the bin [t0, t1) to out
	// and returns the extended slice.
	Inject(t0, t1 time.Duration, rng *hash.XorShift, out []pkt.Packet) []pkt.Packet
}

// DDoS is a packet flood against a single target. With OnOff > 0 the
// attack alternates OnOff on, OnOff off ("goes idle every other second",
// §3.4.3), producing the highly variable workload used to stress the
// predictors. Spoofed floods randomize source addresses and ports per
// packet, which is what blows up flow-state queries.
type DDoS struct {
	Start      time.Duration
	Duration   time.Duration
	PPS        float64       // packet rate while "on"
	Target     uint32        // destination address
	TargetPort uint16        // destination port
	OnOff      time.Duration // half-period of the on/off square wave; 0 = always on
	Spoofed    bool          // randomize src IP/port per packet
	SrcIP      uint32        // fixed source when not spoofed
	Proto      uint8         // defaults to TCP
	TCPFlags   uint8         // e.g. pkt.FlagSYN for SYN floods
	Size       int           // packet size; defaults to 40
}

// NewSYNFlood returns a spoofed TCP SYN flood against target:port, the
// attack of §4.5.5.
func NewSYNFlood(start, dur time.Duration, pps float64, target uint32, port uint16) *DDoS {
	return &DDoS{
		Start: start, Duration: dur, PPS: pps,
		Target: target, TargetPort: port,
		Spoofed: true, TCPFlags: pkt.FlagSYN,
	}
}

// NewOnOffDDoS returns the spoofed on/off DDoS of §3.4.3 (1 s on, 1 s
// off) that targets the monitoring system's predictors.
func NewOnOffDDoS(start, dur time.Duration, pps float64, target uint32) *DDoS {
	return &DDoS{
		Start: start, Duration: dur, PPS: pps,
		Target: target, TargetPort: 80,
		OnOff: time.Second, Spoofed: true, TCPFlags: pkt.FlagSYN,
	}
}

// Inject implements Anomaly.
func (d *DDoS) Inject(t0, t1 time.Duration, rng *hash.XorShift, out []pkt.Packet) []pkt.Packet {
	proto := d.Proto
	if proto == 0 {
		proto = pkt.ProtoTCP
	}
	size := d.Size
	if size == 0 {
		size = 40
	}
	end := d.Start + d.Duration
	step := time.Duration(float64(time.Second) / d.PPS)
	if step <= 0 {
		step = time.Nanosecond
	}
	for t := t0; t < t1; t += step {
		if t < d.Start || t >= end {
			continue
		}
		if d.OnOff > 0 {
			phase := (t - d.Start) / d.OnOff
			if phase%2 == 1 {
				continue // off half-period
			}
		}
		p := pkt.Packet{
			Ts:       int64(t) + int64(rng.Intn(int(step)+1)),
			DstIP:    d.Target,
			DstPort:  d.TargetPort,
			Proto:    proto,
			TCPFlags: d.TCPFlags,
			Size:     size,
		}
		if d.Spoofed {
			p.SrcIP = uint32(rng.Uint64())
			p.SrcPort = uint16(1024 + rng.Intn(64000))
		} else {
			p.SrcIP = d.SrcIP
			p.SrcPort = uint16(1024 + rng.Intn(64000))
		}
		out = append(out, p)
	}
	return out
}

// Worm emulates an outbreak: a growing pool of infected hosts probing
// random destinations on a fixed port with a signature payload (§3.4.3:
// "a large number of packets from many different source and destinations
// while keeping the destination port number fixed").
type Worm struct {
	Start    time.Duration
	Duration time.Duration
	PPS      float64 // probe rate at full outbreak
	DstPort  uint16
	Payload  []byte // signature carried by every probe; PatternWorm if nil
	Infected int    // infected pool size at full outbreak (default 500)
}

// Inject implements Anomaly.
func (w *Worm) Inject(t0, t1 time.Duration, rng *hash.XorShift, out []pkt.Packet) []pkt.Packet {
	payload := w.Payload
	if payload == nil {
		payload = PatternWorm
	}
	pool := w.Infected
	if pool == 0 {
		pool = 500
	}
	end := w.Start + w.Duration
	for t := t0; t < t1; {
		if t < w.Start || t >= end {
			break
		}
		// Outbreak growth: rate and pool ramp with elapsed fraction.
		frac := float64(t-w.Start) / float64(w.Duration)
		rate := w.PPS * (0.1 + 0.9*frac)
		step := time.Duration(float64(time.Second) / rate)
		if step <= 0 {
			step = time.Nanosecond
		}
		infected := 1 + int(frac*float64(pool))
		src := pkt.IPv4(172, 16, byte(rng.Intn(infected)>>8), byte(rng.Intn(infected)))
		body := make([]byte, len(payload))
		copy(body, payload)
		out = append(out, pkt.Packet{
			Ts:       int64(t),
			SrcIP:    src,
			DstIP:    uint32(rng.Uint64()),
			SrcPort:  uint16(1024 + rng.Intn(64000)),
			DstPort:  w.DstPort,
			Proto:    pkt.ProtoTCP,
			TCPFlags: pkt.FlagSYN | pkt.FlagPSH,
			Size:     40 + len(payload),
			Payload:  body,
		})
		t += step
	}
	return out
}

// ByteBurst sends bursts of maximum-size packets between two fixed
// hosts, the attack aimed at byte-driven queries such as trace and
// pattern-search (§3.4.3).
type ByteBurst struct {
	Start    time.Duration
	Duration time.Duration
	PPS      float64
	Payload  bool // attach SnapLen payload bytes
}

// GradualDrift is a slow regime change rather than an attack: web-like
// flows ramp in linearly over RampUp and then *persist* until
// Start+Duration. Unlike the DDoS/burst anomalies, nothing here is
// individually anomalous — the injected flows mimic the generator's own
// web traffic (client/server pools, port mix, flow lengths, packet-size
// distribution), so in the header-derived feature basis the drift is
// just more of the same traffic. What changes is invisible to every
// feature: the new flows carry no payload, so the bytes↔payload-cost
// relation the MLR learned from the base traffic silently breaks. A
// fixed-window predictor can neither separate the regimes (the drift is
// collinear with volume) nor forget the old one quickly — exactly the
// concept-drift case change detection exists for.
type GradualDrift struct {
	Start        time.Duration
	RampUp       time.Duration // linear ramp from 0 to PPS; default Duration/4
	Duration     time.Duration // total lifetime including the ramp
	PPS          float64       // steady rate after the ramp
	Clients      int           // mimic client pool; default 20000 (the generator's default)
	Servers      int           // mimic server pool; default 2000
	MeanFlowPkts int           // mean packets per injected flow; default 8
}

// NewGradualDrift returns a drift that ramps over the first quarter of
// dur and persists for the rest.
func NewGradualDrift(start, dur time.Duration, pps float64) *GradualDrift {
	return &GradualDrift{Start: start, RampUp: dur / 4, Duration: dur, PPS: pps}
}

// Inject implements Anomaly.
func (g *GradualDrift) Inject(t0, t1 time.Duration, rng *hash.XorShift, out []pkt.Packet) []pkt.Packet {
	clients := g.Clients
	if clients == 0 {
		clients = 20000
	}
	servers := g.Servers
	if servers == 0 {
		servers = 2000
	}
	mean := g.MeanFlowPkts
	if mean == 0 {
		mean = 8
	}
	ramp := g.RampUp
	if ramp == 0 {
		ramp = g.Duration / 4
	}
	lo, hi := t0, t1
	if lo < g.Start {
		lo = g.Start
	}
	if end := g.Start + g.Duration; hi > end {
		hi = end
	}
	if hi <= lo {
		return out
	}
	// The ramp factor is evaluated at the window midpoint: bins are two
	// orders of magnitude shorter than any sensible ramp.
	frac := 1.0
	if mid := lo + (hi-lo)/2; ramp > 0 && mid-g.Start < ramp {
		frac = float64(mid-g.Start) / float64(ramp)
	}
	budget := int(g.PPS*frac*(hi-lo).Seconds() + 0.5)
	window := float64(hi - lo)
	for emitted := 0; emitted < budget; {
		flowLen := 1 + rng.Intn(2*mean-1)
		if flowLen > budget-emitted {
			flowLen = budget - emitted
		}
		ci := rng.Intn(clients)
		src := pkt.IPv4(10, byte(ci>>16), byte(ci>>8), byte(ci))
		// Cubed uniform approximates the generator's Zipf popularity.
		u := rng.Float64()
		si := int(float64(servers) * u * u * u)
		if si >= servers {
			si = servers - 1
		}
		dst := pkt.IPv4(147, 83, byte(si>>8), byte(si))
		sport := uint16(1024 + rng.Intn(64000))
		var dport uint16
		switch w := rng.Float64(); {
		case w < 0.7:
			dport = 80
		case w < 0.85:
			dport = 443
		default:
			dport = 8080
		}
		for i := 0; i < flowLen; i++ {
			p := pkt.Packet{
				Ts:      int64(lo) + int64(rng.Float64()*window),
				SrcIP:   src,
				DstIP:   dst,
				SrcPort: sport,
				DstPort: dport,
				Proto:   pkt.ProtoTCP,
			}
			if i == 0 {
				p.TCPFlags = pkt.FlagSYN
				p.Size = 40
			} else {
				// The generator's web-flow size mix, payload-free.
				switch v := rng.Float64(); {
				case v < 0.35:
					p.Size = 40 + rng.Intn(24)
					p.TCPFlags = pkt.FlagACK
				case v < 0.52:
					p.Size = 400 + rng.Intn(300)
					p.TCPFlags = pkt.FlagACK | pkt.FlagPSH
				default:
					p.Size = 1320 + rng.Intn(181)
					p.TCPFlags = pkt.FlagACK | pkt.FlagPSH
				}
			}
			out = append(out, p)
			emitted++
		}
	}
	return out
}

// FlashCrowd is a sudden popular-destination skew: a large legitimate
// client population converges on one server, the rate spiking over Rise
// and then decaying linearly back to zero by Start+Duration. Request
// packets are small, sources are drawn from a wide client pool, and
// everything lands on Target:TargetPort — destination-concentration
// features shift hard while source diversity explodes.
type FlashCrowd struct {
	Start      time.Duration
	Duration   time.Duration
	Rise       time.Duration // ramp-up to peak; default Duration/5
	PPS        float64       // peak request rate
	Target     uint32        // the suddenly popular destination
	TargetPort uint16        // default 80
	Clients    int           // client pool size; default 5000
	Size       int           // request size; default 120
}

// NewFlashCrowd returns a flash crowd peaking at pps against target.
func NewFlashCrowd(start, dur time.Duration, pps float64, target uint32) *FlashCrowd {
	return &FlashCrowd{Start: start, Duration: dur, PPS: pps, Target: target}
}

// Inject implements Anomaly.
func (fc *FlashCrowd) Inject(t0, t1 time.Duration, rng *hash.XorShift, out []pkt.Packet) []pkt.Packet {
	port := fc.TargetPort
	if port == 0 {
		port = 80
	}
	clients := fc.Clients
	if clients == 0 {
		clients = 5000
	}
	size := fc.Size
	if size == 0 {
		size = 120
	}
	rise := fc.Rise
	if rise == 0 {
		rise = fc.Duration / 5
	}
	end := fc.Start + fc.Duration
	for t := t0; t < t1; {
		if t < fc.Start {
			t = fc.Start
			continue
		}
		if t >= end {
			break
		}
		el := t - fc.Start
		var frac float64
		if el < rise {
			frac = float64(el) / float64(rise)
		} else {
			frac = 1 - float64(el-rise)/float64(end-fc.Start-rise)
		}
		rate := fc.PPS * frac
		if rate < 1 {
			rate = 1
		}
		step := time.Duration(float64(time.Second) / rate)
		if step <= 0 {
			step = time.Nanosecond
		}
		c := rng.Intn(clients)
		p := pkt.Packet{
			Ts:      int64(t) + int64(rng.Intn(int(step)+1)),
			SrcIP:   pkt.IPv4(100, 66, byte(c>>8), byte(c)),
			DstIP:   fc.Target,
			SrcPort: uint16(1024 + rng.Intn(64000)),
			DstPort: port,
			Proto:   pkt.ProtoTCP,
			Size:    size + rng.Intn(64),
		}
		if rng.Float64() < 0.2 {
			p.TCPFlags = pkt.FlagSYN
		} else {
			p.TCPFlags = pkt.FlagACK | pkt.FlagPSH
		}
		out = append(out, p)
		t += step
	}
	return out
}

// TopologyShift is a re-hashed address space: from Start, a constant
// PPS of otherwise ordinary traffic appears between address pools the
// monitor has never seen (clients in 198.18/15, servers in 198.19/16 —
// the benchmarking ranges). Every interval rotation keeps discovering
// "new" sources and destinations, so the new-address features stay
// elevated for as long as the shift lasts — the signature of a routing
// or renumbering event rather than an attack.
type TopologyShift struct {
	Start    time.Duration
	Duration time.Duration
	PPS      float64
	Sources  int // shifted client pool; default 30000
	Servers  int // shifted server pool; default 1000
}

// NewTopologyShift returns an abrupt, persistent address-space shift.
func NewTopologyShift(start, dur time.Duration, pps float64) *TopologyShift {
	return &TopologyShift{Start: start, Duration: dur, PPS: pps}
}

// Inject implements Anomaly.
func (ts *TopologyShift) Inject(t0, t1 time.Duration, rng *hash.XorShift, out []pkt.Packet) []pkt.Packet {
	sources := ts.Sources
	if sources == 0 {
		sources = 30000
	}
	servers := ts.Servers
	if servers == 0 {
		servers = 1000
	}
	end := ts.Start + ts.Duration
	step := time.Duration(float64(time.Second) / ts.PPS)
	if step <= 0 {
		step = time.Nanosecond
	}
	for t := t0; t < t1; t += step {
		if t < ts.Start || t >= end {
			continue
		}
		s := rng.Intn(sources)
		d := rng.Intn(servers)
		size := 64
		if rng.Float64() < 0.3 {
			size = 1000 + rng.Intn(500)
		}
		p := pkt.Packet{
			Ts:      int64(t) + int64(rng.Intn(int(step)+1)),
			SrcIP:   pkt.IPv4(198, 18, byte(s>>8), byte(s)),
			DstIP:   pkt.IPv4(198, 19, byte(d>>8), byte(d)),
			SrcPort: uint16(1024 + rng.Intn(64000)),
			DstPort: 80,
			Proto:   pkt.ProtoTCP,
			Size:    size,
		}
		if rng.Float64() < 0.1 {
			p.TCPFlags = pkt.FlagSYN
		} else {
			p.TCPFlags = pkt.FlagACK
		}
		out = append(out, p)
	}
	return out
}

// Inject implements Anomaly.
func (bb *ByteBurst) Inject(t0, t1 time.Duration, rng *hash.XorShift, out []pkt.Packet) []pkt.Packet {
	end := bb.Start + bb.Duration
	step := time.Duration(float64(time.Second) / bb.PPS)
	if step <= 0 {
		step = time.Nanosecond
	}
	for t := t0; t < t1; t += step {
		if t < bb.Start || t >= end {
			continue
		}
		p := pkt.Packet{
			Ts:       int64(t),
			SrcIP:    pkt.IPv4(198, 51, 100, 1),
			DstIP:    pkt.IPv4(198, 51, 100, 2),
			SrcPort:  40000,
			DstPort:  9,
			Proto:    pkt.ProtoTCP,
			TCPFlags: pkt.FlagACK | pkt.FlagPSH,
			Size:     1500,
		}
		if bb.Payload {
			// One draw per eight bytes, top bits cleared; SnapLen is
			// a multiple of eight.
			body := make([]byte, pkt.SnapLen)
			for i := 0; i < len(body); i += 8 {
				binary.LittleEndian.PutUint64(body[i:], rng.Uint64()&low7)
			}
			p.Payload = body
		}
		out = append(out, p)
	}
	return out
}
