package trace

import (
	"encoding/binary"
	"math"
	"math/rand"
	"time"

	"repro/internal/hash"
	"repro/internal/pkt"
)

// Config parameterizes the synthetic traffic generator. Zero fields are
// replaced by defaults (see withDefaults); presets for the thesis
// datasets live in presets.go.
type Config struct {
	Seed     uint64
	Duration time.Duration // total trace length (virtual time)
	TimeBin  time.Duration // batch duration; DefaultTimeBin if zero

	// MaxBins overrides the batch count derived from Duration: > 0
	// produces exactly MaxBins batches, < 0 streams forever (the
	// unbounded source for long-running Stream deployments — pair it
	// with a bounded sink, never with Run or Record), 0 defers to
	// Duration. Traffic shape (diurnal swing, bursts) is unaffected.
	MaxBins int

	// Load.
	PacketsPerSec    float64       // long-term average packet rate
	DiurnalAmplitude float64       // relative amplitude of the slow sinusoidal load swing [0,1)
	DiurnalPeriod    time.Duration // period of the slow swing
	NoiseSigma       float64       // lognormal sigma of per-bin burst noise

	// FlowMixSigma modulates the flow arrival rate independently of the
	// packet rate (lognormal, per bin). Real traffic's flows-per-packet
	// ratio varies — route changes, scan waves, application shifts —
	// which is what keeps flow-arrival features informative to the
	// predictor instead of collinear with the packet count.
	FlowMixSigma float64

	// Flash bursts: multi-bin load surges (alpha flows, flash crowds)
	// that give real traces their "peaks orders of magnitude above the
	// average" character (§1.2). Each bin starts a burst with
	// probability BurstProb; bursts last ~BurstBins bins and multiply
	// the load by ~BurstFactor.
	BurstProb   float64 // per-bin start probability (default 0.008)
	BurstFactor float64 // mean load multiplier during a burst (default 3)
	BurstBins   float64 // mean burst length in bins (default 6)

	// Flow structure.
	MeanFlowPkts float64 // mean packets per (non-trivial) flow
	ParetoShape  float64 // flow-size tail index (smaller = heavier)
	MaxFlowPkts  int     // cap on packets per flow
	FlowPktRate  float64 // mean within-flow packet rate (pkts/s)

	// Address structure.
	Clients  int     // client address pool size
	Servers  int     // server address pool size
	ZipfS    float64 // server popularity skew (must be > 1)
	Scanners int     // scanner host pool size (drives super-sources)

	// Traffic mix.
	P2PFrac     float64 // fraction of flows that are P2P (signature-bearing when Payload)
	ScanFrac    float64 // fraction of flows that are scans (1 SYN to a random host)
	PatternFrac float64 // fraction of web flows embedding PatternHTTP

	// Payload capture.
	Payload bool // generate payload bytes (up to pkt.SnapLen)

	// Anomalies injected on top of the base traffic.
	Anomalies []Anomaly
}

// Application signatures embedded in generated payloads. The
// p2p-detector query matches the P2P ones; pattern-search defaults to
// PatternHTTP.
var (
	SigBitTorrent = []byte("\x13BitTorrent protocol")
	SigGnutella   = []byte("GNUTELLA CONNECT/0.6")
	SigED2K       = []byte{0xe3, 0x97, 0x00, 0x00, 0x00, 0x01}
	PatternHTTP   = []byte("GET /index.html HTTP/1.1")
	patternWorm   = []byte("GET /default.ida?NNNNNNNN")
)

func (c Config) withDefaults() Config {
	if c.TimeBin == 0 {
		c.TimeBin = DefaultTimeBin
	}
	if c.Duration == 0 {
		c.Duration = 30 * time.Second
	}
	if c.PacketsPerSec == 0 {
		c.PacketsPerSec = 20000
	}
	if c.DiurnalPeriod == 0 {
		c.DiurnalPeriod = 10 * time.Minute
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 0.12
	}
	if c.FlowMixSigma == 0 {
		c.FlowMixSigma = 0.25
	}
	if c.BurstProb == 0 {
		c.BurstProb = 0.008
	}
	if c.BurstFactor == 0 {
		c.BurstFactor = 3
	}
	if c.BurstBins == 0 {
		c.BurstBins = 6
	}
	if c.MeanFlowPkts == 0 {
		c.MeanFlowPkts = 14
	}
	if c.ParetoShape == 0 {
		c.ParetoShape = 1.35
	}
	if c.MaxFlowPkts == 0 {
		c.MaxFlowPkts = 2000
	}
	if c.FlowPktRate == 0 {
		c.FlowPktRate = 25
	}
	if c.Clients == 0 {
		c.Clients = 20000
	}
	if c.Servers == 0 {
		c.Servers = 2000
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.25
	}
	if c.Scanners == 0 {
		c.Scanners = 6
	}
	if c.P2PFrac == 0 {
		c.P2PFrac = 0.08
	}
	if c.ScanFrac == 0 {
		c.ScanFrac = 0.02
	}
	if c.PatternFrac == 0 {
		c.PatternFrac = 0.05
	}
	return c
}

type flowClass int

const (
	classWeb flowClass = iota
	classDNS
	classMail
	classP2P
	classScan
	classOther
)

// genFlow is one active flow inside the generator.
type genFlow struct {
	next      time.Duration // time of the flow's next packet
	gap       float64       // mean inter-packet gap, seconds
	remaining int
	src, dst  uint32
	sport     uint16
	dport     uint16
	proto     uint8
	class     flowClass
	first     bool   // next packet is the flow's first (SYN for TCP)
	sig       []byte // signature to embed in the first data packet
	sigSent   bool
}

// flowHeap is a binary min-heap of flows keyed by next. push, pop, up
// and down are container/heap's algorithm line for line, without its
// interface calls: which of two flows due at the same nanosecond pops
// first decides every later RNG draw, so the tie order is part of the
// generated trace.
type flowHeap []*genFlow

func (h *flowHeap) push(f *genFlow) {
	*h = append(*h, f)
	h.up(len(*h) - 1)
}

func (h *flowHeap) pop() *genFlow {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	f := old[n]
	old[n] = nil
	*h = old[:n]
	return f
}

func (h flowHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].next < h[i].next) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h flowHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].next < h[j1].next {
			j = j2 // right child
		}
		if !(h[j].next < h[i].next) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Generator is a deterministic synthetic traffic source implementing
// Source. Construct with NewGenerator.
type Generator struct {
	cfg      Config
	rng      *hash.XorShift
	zipf     *rand.Zipf
	active   flowHeap
	bin      int
	nbins    int
	meanFlow float64 // calibrated mean packets per flow

	burstLeft   int     // bins remaining in the current flash burst
	burstfactor float64 // load multiplier of the current burst

	// warm is set once the active-flow set holds the steady state:
	// Reset clears it, and the first NextBatch after a Reset warms up,
	// so a Reset nothing reads after (NewGenerator's, Record's last)
	// costs nothing.
	warm bool

	// free pools retired flow states (a finished flow's struct is reused
	// by a later spawn) and pktCap predicts the next batch's size from
	// the previous one's, so steady-state generation costs one
	// right-sized packet-slice allocation per batch and no per-flow
	// ones. Neither affects the generated traffic: recycled flows are
	// zero-reset and capacity is invisible to consumers.
	free   []*genFlow
	pktCap int
}

// NewGenerator returns a generator for the given config.
func NewGenerator(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	g := &Generator{cfg: cfg}
	g.calibrate()
	g.Reset()
	return g
}

// calibrate estimates the realized mean packets per flow by sampling the
// flow-spawn distribution with throwaway generators. The analytic mix
// mean is biased by heavy-tail truncation and discretization; converting
// the target packet rate into a flow arrival rate with the empirical
// mean keeps the realized rate within a few percent of the target.
func (g *Generator) calibrate() {
	g.rng = hash.NewXorShift(g.cfg.Seed + 0xca11b)
	g.zipf = rand.NewZipf(rand.New(hash.NewXorShift(g.cfg.Seed+0xca11c)), g.cfg.ZipfS, 1, uint64(g.cfg.Servers-1))
	const n = 5000
	var total int64
	for i := 0; i < n; i++ {
		total += int64(g.spawnFlow().remaining)
	}
	g.meanFlow = float64(total) / n
}

// TimeBin implements Source.
func (g *Generator) TimeBin() time.Duration { return g.cfg.TimeBin }

// Reset implements Source: the generator restarts from a pristine,
// seed-determined state. The warm-up that seeds the active flows runs
// at the next NextBatch, so Reset itself is cheap.
func (g *Generator) Reset() {
	g.rng = hash.NewXorShift(g.cfg.Seed + 0x5ca1ab1e)
	g.zipf = rand.NewZipf(rand.New(hash.NewXorShift(g.cfg.Seed+0x21bf)), g.cfg.ZipfS, 1, uint64(g.cfg.Servers-1))
	g.free = append(g.free, g.active...) // abandoned flows are reusable
	g.active = g.active[:0]
	g.bin = 0
	switch {
	case g.cfg.MaxBins > 0:
		g.nbins = g.cfg.MaxBins
	case g.cfg.MaxBins < 0:
		g.nbins = -1 // unbounded
	default:
		g.nbins = int(g.cfg.Duration / g.cfg.TimeBin)
	}
	g.burstLeft = 0
	g.burstfactor = 1
	g.warm = false
}

// warmup seeds the active-flow set with the steady state: flows that
// arrived during the window before t=0 are spawned in the past and
// fast-forwarded, discarding their pre-trace packets. Without this the
// first seconds of every trace would ramp up from an empty network.
func (g *Generator) warmup() {
	window := g.maxFlowDur()
	arrivalRate := g.cfg.PacketsPerSec / g.meanFlow // flows per second
	n := g.poisson(arrivalRate * window.Seconds())
	for i := 0; i < n; i++ {
		f := g.spawnFlow()
		f.next = -time.Duration(g.rng.Float64() * float64(window))
		for f.next < 0 && f.remaining > 0 {
			f.remaining--
			f.first = false
			f.next += time.Duration(g.rng.Exp(1/f.gap) * float64(time.Second))
		}
		if f.remaining > 0 {
			g.active.push(f)
		}
	}
}

// NextBatch implements Source.
func (g *Generator) NextBatch() (pkt.Batch, bool) {
	if g.nbins >= 0 && g.bin >= g.nbins {
		return pkt.Batch{}, false
	}
	if !g.warm {
		g.warmup()
		g.warm = true
	}
	t0 := time.Duration(g.bin) * g.cfg.TimeBin
	t1 := t0 + g.cfg.TimeBin
	binSec := g.cfg.TimeBin.Seconds()

	// Per-bin load multiplier: slow diurnal swing times bursty noise
	// times the current flash burst, if any.
	mult := 1 + g.cfg.DiurnalAmplitude*math.Sin(2*math.Pi*t0.Seconds()/g.cfg.DiurnalPeriod.Seconds())
	mult *= math.Exp(g.cfg.NoiseSigma*g.rng.NormFloat64() - g.cfg.NoiseSigma*g.cfg.NoiseSigma/2)
	if g.burstLeft > 0 {
		g.burstLeft--
		mult *= g.burstfactor
	} else if g.cfg.BurstProb > 0 && g.rng.Float64() < g.cfg.BurstProb {
		g.burstLeft = 1 + int(g.rng.Exp(1/g.cfg.BurstBins))
		g.burstfactor = 1 + g.rng.Exp(1/(g.cfg.BurstFactor-1))
		mult *= g.burstfactor
	}
	if mult < 0.05 {
		mult = 0.05
	}

	// Spawn new flows for this bin (Poisson arrivals, uniform in bin).
	// The flow-mix modulation moves the flow arrival rate independently
	// of the packet rate.
	flowMult := math.Exp(g.cfg.FlowMixSigma*g.rng.NormFloat64() - g.cfg.FlowMixSigma*g.cfg.FlowMixSigma/2)
	meanArrivals := g.cfg.PacketsPerSec * mult * flowMult / g.meanFlow * binSec
	for i, n := 0, g.poisson(meanArrivals); i < n; i++ {
		f := g.spawnFlow()
		f.next = t0 + time.Duration(g.rng.Float64()*float64(g.cfg.TimeBin))
		g.active.push(f)
	}

	// Drain every packet due before the end of the bin. The slice is
	// sized from the previous batch (traffic is locally stationary, so
	// that is a tight predictor even across bursts) and handed off to
	// the consumer: batches may be recorded and retained, so the backing
	// array cannot be reused — only the flow states can.
	b := pkt.Batch{Start: t0, Bin: g.cfg.TimeBin}
	if g.pktCap > 0 {
		b.Pkts = make([]pkt.Packet, 0, g.pktCap+g.pktCap/8+1)
	}
	for len(g.active) > 0 && g.active[0].next < t1 {
		f := g.active.pop()
		b.Pkts = append(b.Pkts, g.makePacket(f))
		f.remaining--
		if f.remaining > 0 {
			f.next += time.Duration(g.rng.Exp(1/f.gap) * float64(time.Second))
			g.active.push(f)
		} else {
			g.free = append(g.free, f)
		}
	}
	// Anomalies on top, then restore time order.
	for i, a := range g.cfg.Anomalies {
		arng := hash.NewXorShift(g.cfg.Seed ^ (uint64(g.bin)+1)*0x9e3779b97f4a7c15 ^ (uint64(i)+1)*0xc2b2ae3d27d4eb4f)
		b.Pkts = a.Inject(t0, t1, arng, b.Pkts)
	}
	sortBatch(&b)
	// Record the size prediction after anomaly injection, so bursty bins
	// presize for the attack traffic too.
	g.pktCap = len(b.Pkts)

	g.bin++
	return b, true
}

func (g *Generator) poisson(lambda float64) int {
	if !(lambda > 0) { // NaN too: against exp(-NaN) the loop below never ends
		return 0
	}
	if lambda > 30 {
		n := lambda + math.Sqrt(lambda)*g.rng.NormFloat64()
		if n < 0 {
			return 0
		}
		return int(n + 0.5)
	}
	limit := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= g.rng.Float64()
		if p < limit {
			return k
		}
		k++
	}
}

func (g *Generator) clientIP() uint32 {
	i := g.rng.Intn(g.cfg.Clients)
	return pkt.IPv4(10, byte(i>>16), byte(i>>8), byte(i))
}

func (g *Generator) serverIP() uint32 {
	j := int(g.zipf.Uint64())
	return pkt.IPv4(147, 83, byte(j>>8), byte(j))
}

func (g *Generator) scannerIP() uint32 {
	i := g.rng.Intn(g.cfg.Scanners)
	return pkt.IPv4(203, 0, 113, byte(i+1))
}

func (g *Generator) randomIP() uint32 {
	return uint32(g.rng.Uint64())
}

// flowLen draws a Pareto flow length with the configured mean.
func (g *Generator) flowLen(mean float64) int {
	// Pareto with shape a>1 has mean xm*a/(a-1); solve xm for our mean.
	a := g.cfg.ParetoShape
	xm := mean * (a - 1) / a
	n := int(g.rng.Pareto(xm, a) + 0.5)
	if n < 1 {
		n = 1
	}
	if n > g.cfg.MaxFlowPkts {
		n = g.cfg.MaxFlowPkts
	}
	return n
}

func (g *Generator) spawnFlow() *genFlow {
	c := g.cfg
	u := g.rng.Float64()
	var f *genFlow
	if n := len(g.free); n > 0 {
		f = g.free[n-1]
		g.free = g.free[:n-1]
		*f = genFlow{first: true, proto: pkt.ProtoTCP}
	} else {
		f = &genFlow{first: true, proto: pkt.ProtoTCP}
	}
	switch {
	case u < c.ScanFrac:
		f.class = classScan
		f.src = g.scannerIP()
		f.dst = g.randomIP()
		f.sport = uint16(1024 + g.rng.Intn(64000))
		f.dport = uint16(1 + g.rng.Intn(1024))
		f.remaining = 1 + g.rng.Intn(2)
	case u < c.ScanFrac+c.P2PFrac:
		f.class = classP2P
		f.src = g.clientIP()
		f.dst = g.serverIP() // peers modelled inside the server pool
		f.sport = uint16(1024 + g.rng.Intn(64000))
		switch g.rng.Intn(3) {
		case 0:
			f.dport, f.sig = 6881, SigBitTorrent
		case 1:
			f.dport, f.sig = 6346, SigGnutella
		default:
			f.dport, f.sig = 4662, SigED2K
		}
		// A share of P2P traffic hides on ephemeral ports, so port
		// heuristics alone cannot reach full detection accuracy.
		if g.rng.Float64() < 0.3 {
			f.dport = uint16(10000 + g.rng.Intn(50000))
		}
		f.remaining = g.flowLen(2.5 * c.MeanFlowPkts)
	case u < c.ScanFrac+c.P2PFrac+0.12:
		f.class = classDNS
		f.proto = pkt.ProtoUDP
		f.src = g.clientIP()
		f.dst = g.serverIP()
		f.sport = uint16(1024 + g.rng.Intn(64000))
		f.dport = 53
		f.remaining = 1 + g.rng.Intn(2)
	case u < c.ScanFrac+c.P2PFrac+0.12+0.05:
		f.class = classMail
		f.src = g.clientIP()
		f.dst = g.serverIP()
		f.sport = uint16(1024 + g.rng.Intn(64000))
		f.dport = 25
		f.remaining = g.flowLen(10)
	default:
		f.class = classWeb
		f.src = g.clientIP()
		f.dst = g.serverIP()
		f.sport = uint16(1024 + g.rng.Intn(64000))
		switch {
		case g.rng.Float64() < 0.7:
			f.dport = 80
		case g.rng.Float64() < 0.85:
			f.dport = 443
		default:
			f.dport = 8080
		}
		if g.rng.Float64() < c.PatternFrac {
			f.sig = PatternHTTP
		}
		f.remaining = g.flowLen(c.MeanFlowPkts)
	}
	// Within-flow pacing: draw a bounded flow duration so every flow can
	// complete within the trace (otherwise the heavy tail silently
	// truncates and the realized packet rate falls short), with a
	// lognormal spread and a floor at the configured per-flow rate.
	dur := g.maxFlowDur().Seconds() * math.Pow(g.rng.Float64(), 2)
	rate := float64(f.remaining) / math.Max(dur, 1e-3)
	base := c.FlowPktRate * math.Exp(0.5*g.rng.NormFloat64())
	if rate < base {
		rate = base
	}
	f.gap = 1 / rate
	return f
}

// maxFlowDur bounds how long a flow may live: a third of the trace,
// capped at 15 s and floored at 500 ms.
func (g *Generator) maxFlowDur() time.Duration {
	d := g.cfg.Duration / 3
	if d > 15*time.Second {
		d = 15 * time.Second
	}
	if d < 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	return d
}

func (g *Generator) pktSize(f *genFlow) int {
	if f.first && f.proto == pkt.ProtoTCP {
		return 40
	}
	switch f.class {
	case classDNS:
		return 60 + g.rng.Intn(90)
	case classScan:
		return 40 + g.rng.Intn(20)
	}
	u := g.rng.Float64()
	switch {
	case u < 0.35:
		return 40 + g.rng.Intn(24) // acks and control
	case u < 0.52:
		return 400 + g.rng.Intn(300)
	default:
		return 1320 + g.rng.Intn(181) // near-MTU data
	}
}

func (g *Generator) makePacket(f *genFlow) pkt.Packet {
	size := g.pktSize(f)
	p := pkt.Packet{
		Ts:      int64(f.next),
		SrcIP:   f.src,
		DstIP:   f.dst,
		SrcPort: f.sport,
		DstPort: f.dport,
		Proto:   f.proto,
		Size:    size,
	}
	if f.proto == pkt.ProtoTCP {
		if f.first {
			p.TCPFlags = pkt.FlagSYN
		} else {
			p.TCPFlags = pkt.FlagACK
			if size > 100 {
				p.TCPFlags |= pkt.FlagPSH
			}
		}
	}
	if g.cfg.Payload && size > 100 {
		n := size - 40
		if n > pkt.SnapLen {
			n = pkt.SnapLen
		}
		p.Payload = g.fillPayload(n, f)
	}
	f.first = false
	return p
}

// fillPayload produces n pseudo-random payload bytes, one rng draw per
// eight bytes, embedding the flow's signature once at the front of its
// first data packet.
func (g *Generator) fillPayload(n int, f *genFlow) []byte {
	buf := make([]byte, n)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], scrubPayload(g.rng.Uint64()))
	}
	if i < n {
		v := scrubPayload(g.rng.Uint64())
		for j := i; j < n; j++ {
			buf[j] = byte(v >> (8 * uint(j-i)))
		}
	}
	if f.sig != nil && !f.sigSent && n >= len(f.sig) {
		copy(buf, f.sig)
		f.sigSent = true
	}
	return buf
}

// low7 is 0x7f in every byte of a word.
const low7 = 0x7f7f7f7f7f7f7f7f

// scrubPayload applies the payload byte rule to the eight bytes of v at
// once. Keep payload printable-ish so accidental signature collisions
// are impossible: clear every byte's top bit, and turn the BitTorrent
// signature's lead byte 0x13 into 0x14. After the mask no byte carries
// into the next, so x+low7 sets a byte's top bit exactly when that byte
// of x = v^0x1313… is non-zero. The bytes it leaves clear are the 0x13s,
// and each gets one added.
func scrubPayload(v uint64) uint64 {
	v &= low7
	x := v ^ 0x1313131313131313
	return v + (^(x+low7)&^low7)>>7
}
