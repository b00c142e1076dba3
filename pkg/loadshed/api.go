package loadshed

// api.go re-exports the pieces of the internal packages an embedder
// needs next to the engine — queries, strategies, traffic sources and
// trace files — so that cmd/, the Example tests and downstream users
// build whole pipelines against this package alone without reaching
// into internal/. Of the control plane (internal/control) it re-exports
// only the transport a Node takes and what bench/ compiles against;
// cmd/lsd's coordinator and worker modes import internal/control.

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/control"
	"repro/internal/custom"
	"repro/internal/pkt"
	"repro/internal/queries"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Core re-exported types.
type (
	// Query is a black-box monitoring application (Table 2.2).
	Query = queries.Query
	// QueryConfig carries query construction tunables.
	QueryConfig = queries.Config
	// Result is one query's answer for a measurement interval.
	Result = queries.Result
	// Strategy decides per-query sampling rates under overload (Ch. 5).
	// EqualRates, MMFSCPU, MMFSPkt and StrategyByName return the only
	// implementations.
	Strategy = sched.Strategy
	// Source produces a trace one batch at a time.
	Source = trace.Source
	// TraceConfig parameterizes the synthetic traffic generator.
	TraceConfig = trace.Config
	// TraceStats summarizes a trace like Table 2.3 reports its datasets.
	TraceStats = trace.Stats
	// Anomaly injects attack traffic into a generated trace.
	Anomaly = trace.Anomaly
)

// Strategies.

// EqualRates returns the Chapter 4 strategy: one global sampling rate.
// With respectMinRates it becomes the eq_srates baseline of Chapter 5.
func EqualRates(respectMinRates bool) Strategy {
	return sched.EqualRates{RespectMinRates: respectMinRates}
}

// MMFSCPU returns max-min fair share in CPU cycles (§5.2.1).
func MMFSCPU() Strategy { return sched.MMFSCPU{} }

// MMFSPkt returns max-min fair share in packet access (§5.2.2), the
// paper's preferred strategy.
func MMFSPkt() Strategy { return sched.MMFSPkt{} }

// StrategyByName maps the names used in figures and on command lines —
// "equal", "eq_srates", "mmfs_cpu", "mmfs_pkt" — to strategies.
func StrategyByName(name string) (Strategy, error) {
	switch name {
	case "equal":
		return sched.EqualRates{}, nil
	case "eq_srates":
		return sched.EqualRates{RespectMinRates: true}, nil
	case "mmfs_cpu":
		return sched.MMFSCPU{}, nil
	case "mmfs_pkt":
		return sched.MMFSPkt{}, nil
	default:
		return nil, fmt.Errorf("loadshed: unknown strategy %q", name)
	}
}

// ParseScheme maps a scheme name — "predictive", "reactive",
// "original", "none"/"no_lshed" — to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	switch strings.ToLower(name) {
	case "predictive":
		return Predictive, nil
	case "reactive":
		return Reactive, nil
	case "original":
		return Original, nil
	case "none", "noshed", "no_lshed":
		return NoShed, nil
	default:
		return 0, fmt.Errorf("loadshed: unknown scheme %q", name)
	}
}

// Queries.

// StandardQueries returns the seven-query set of the Chapter 3/4
// evaluation.
func StandardQueries(cfg QueryConfig) []Query { return queries.StandardSet(cfg) }

// AllQueries returns all ten Table 2.2 queries.
func AllQueries(cfg QueryConfig) []Query { return queries.FullSet(cfg) }

// Individual query constructors, for building custom sets.
var (
	// NewCounter counts packets and bytes.
	NewCounter = queries.NewCounter
	// NewFlows counts distinct 5-tuple flows.
	NewFlows = queries.NewFlows
	// NewTopK tracks the k busiest destinations.
	NewTopK = queries.NewTopK
	// NewP2PDetector classifies p2p traffic and can shed its own load
	// (Chapter 6).
	NewP2PDetector = queries.NewP2PDetector
)

// NewSelfishP2P returns a p2p-detector that ignores custom shed
// requests — the adversary the enforcement policy must contain (§6.3.4).
func NewSelfishP2P(cfg QueryConfig) Query {
	return custom.NewSelfish(queries.NewP2PDetector(cfg))
}

// Traffic generation.

// NewGenerator builds a deterministic synthetic traffic source.
func NewGenerator(cfg TraceConfig) *trace.Generator { return trace.NewGenerator(cfg) }

// IPv4 packs four octets into the packed address form packets use.
func IPv4(a, b, c, d byte) uint32 { return pkt.IPv4(a, b, c, d) }

// Dataset presets approximating the paper's traces (Table 2.3).
var (
	CESCA1 = trace.CESCA1
	CESCA2 = trace.CESCA2
	UPC2   = trace.UPC2
)

// presets is the single source of the dataset-preset names, in the
// order Table 2.3 lists the captures.
var presets = []struct {
	name string
	mk   func(seed uint64, dur time.Duration, scale float64) TraceConfig
}{
	{"cesca1", trace.CESCA1},
	{"cesca2", trace.CESCA2},
	{"abilene", trace.Abilene},
	{"cenic", trace.CENIC},
	{"upc1", trace.UPC1},
	{"upc2", trace.UPC2},
}

// PresetNames lists the dataset presets PresetConfig accepts.
func PresetNames() []string {
	out := make([]string, len(presets))
	for i, p := range presets {
		out[i] = p.name
	}
	return out
}

// maxPresetScale bounds PresetConfig's rate multiplier. The generator
// materialises each bin, and at 100 times the busiest preset's rate a
// 100 ms bin already holds about 740,000 packets.
const maxPresetScale = 100

// PresetConfig returns the named dataset preset's generator config. The
// scale multiplies the preset's packet rate; zero or less selects 1,
// and a scale that is not finite or exceeds maxPresetScale is refused.
func PresetConfig(name string, seed uint64, dur time.Duration, scale float64) (TraceConfig, error) {
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale > maxPresetScale {
		return TraceConfig{}, fmt.Errorf("loadshed: preset scale %v is not finite or exceeds %d", scale, maxPresetScale)
	}
	for _, p := range presets {
		if p.name == strings.ToLower(name) {
			return p.mk(seed, dur, scale), nil
		}
	}
	return TraceConfig{}, fmt.Errorf("loadshed: unknown preset %q", name)
}

// Anomaly constructors.
var (
	// NewSYNFlood builds the spoofed SYN flood of §4.5.5.
	NewSYNFlood = trace.NewSYNFlood
	// NewGradualDrift builds a slow traffic-mix drift that shifts the
	// relation between header features and query cost (no step change).
	NewGradualDrift = trace.NewGradualDrift
)

// The control plane (internal/control). NodeTransport is what NewNode
// takes; the rest is what bench/ prices the coordinator with.
type (
	// NodeTransport is a Node's link to the budget coordinator.
	NodeTransport = control.NodeTransport
	// DemandReport is a node's per-bin message to the coordinator.
	DemandReport = control.DemandReport
	// CoordServerConfig tunes a TCP coordinator's heartbeat.
	CoordServerConfig = control.CoordServerConfig
	// CoordClientConfig tunes a worker's TCP coordinator link.
	CoordClientConfig = control.CoordClientConfig
)

var (
	// NewCoordinator returns a budget coordinator over a policy and a
	// total budget per bin.
	NewCoordinator = control.NewCoordinator
	// NewLoopback joins a node to an in-process coordinator.
	NewLoopback = control.NewLoopback
	// ServeCoordinator serves a coordinator over TCP.
	ServeCoordinator = control.ServeCoordinator
	// DialCoordinator connects a worker to a TCP coordinator.
	DialCoordinator = control.DialCoordinator
)

// Multi-link helpers (see cluster.go for the Cluster itself).

// AsymmetricMix returns n link profiles with all the overload on link 0
// (a DDoS-swamped link among calm ones), the headline Cluster scenario.
var AsymmetricMix = trace.AsymmetricMix

// SplitFlows partitions src into n per-link sources by flow hash —
// deterministic per seed and flow-consistent, like a flow-aware load
// balancer feeding a bank of monitors. The trace is materialized, so
// the returned sources are independent and safe for concurrent shards.
func SplitFlows(src Source, n int, seed uint64) []Source {
	parts := trace.SplitFlows(src, n, seed)
	out := make([]Source, len(parts))
	for i, p := range parts {
		out[i] = p
	}
	return out
}

// Trace files.

// OpenTraceFile opens a recorded trace for streaming replay: batches
// are read from disk incrementally, so a file of any size replays in
// memory bounded by its largest batch. Close it when done; check Err
// when the stream ends if the file is untrusted.
func OpenTraceFile(path string) (*trace.FileSource, error) { return trace.OpenFile(path) }

// ReadTrace loads a recorded trace fully into memory; it replays
// byte-identically everywhere. Prefer it for small traces replayed many
// times; use OpenTraceFile for large files and long-running streams.
func ReadTrace(r io.Reader) (Source, error) { return trace.ReadAll(r) }

// WriteTrace drains src into w in the trace file format.
func WriteTrace(w io.Writer, src Source) error { return trace.WriteAll(w, src) }

// MeasureTrace drains src and summarizes it, resetting it afterwards.
func MeasureTrace(src Source) TraceStats { return trace.Measure(src) }

// Live ingest and tail-follow sources, for serving deployments.

type (
	// LiveConfig parameterizes a live ingest listener.
	LiveConfig = trace.LiveConfig
	// LiveSource is a Source fed by a datagram socket (UDP or unixgram).
	LiveSource = trace.LiveSource
	// LiveSender forwards batches to a live listener in its wire framing.
	LiveSender = trace.LiveSender
)

// ListenLive opens a live ingest listener on network ("udp", "udp4",
// "udp6" or "unixgram") and address. Close it to end the stream.
func ListenLive(network, address string, cfg LiveConfig) (*LiveSource, error) {
	return trace.ListenLive(network, address, cfg)
}

// DialLive connects a sender to a live listener.
func DialLive(network, address string) (*LiveSender, error) {
	return trace.DialLive(network, address)
}

// TailFile opens a growing trace file for tail-follow replay — the
// source follows the file as a writer appends to it; poll <= 0 selects
// the default poll interval.
func TailFile(path string, poll time.Duration) (*trace.TailSource, error) {
	return trace.TailFile(path, poll)
}

// SourceErr reports the error that ended src's stream, for sources that
// track one (trace files, live listeners, tails); nil for sources that
// cannot fail mid-stream, and nil after a stream that ended cleanly.
// Callers that stream untrusted or unreliable input should check it
// when NextBatch reports the end.
func SourceErr(src Source) error {
	if e, ok := src.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// Dynamic query construction, for the admin plane.

// queryKinds maps each Table 2.2 query name to its constructor with
// default tunables, the form a serving process's registration API uses.
var queryKinds = []struct {
	name string
	mk   func(cfg QueryConfig) Query
}{
	{"application", func(cfg QueryConfig) Query { return queries.NewApplication(cfg) }},
	{"autofocus", func(cfg QueryConfig) Query { return queries.NewAutofocus(cfg, 0) }},
	{"counter", func(cfg QueryConfig) Query { return queries.NewCounter(cfg) }},
	{"flows", func(cfg QueryConfig) Query { return queries.NewFlows(cfg) }},
	{"high-watermark", func(cfg QueryConfig) Query { return queries.NewHighWatermark(cfg) }},
	{"p2p-detector", func(cfg QueryConfig) Query { return queries.NewP2PDetector(cfg) }},
	{"pattern-search", func(cfg QueryConfig) Query { return queries.NewPatternSearch(cfg, nil) }},
	{"super-sources", func(cfg QueryConfig) Query { return queries.NewSuperSources(cfg, 0) }},
	{"top-k", func(cfg QueryConfig) Query { return queries.NewTopK(cfg, 0) }},
	{"trace", func(cfg QueryConfig) Query { return queries.NewTraceQuery(cfg) }},
}

// queryKindNames lists the query names QueryByName accepts, sorted.
func queryKindNames() []string {
	out := make([]string, len(queryKinds))
	for i, k := range queryKinds {
		out[i] = k.name
	}
	return out
}

// QueryByName constructs a fresh instance of the named Table 2.2 query
// with default tunables. The name is the query's own Name() string —
// what result sinks and the /queries admin endpoint report.
func QueryByName(name string, cfg QueryConfig) (Query, error) {
	for _, k := range queryKinds {
		if k.name == strings.ToLower(name) {
			return k.mk(cfg), nil
		}
	}
	return nil, fmt.Errorf("loadshed: unknown query kind %q (have %s)",
		name, strings.Join(queryKindNames(), ", "))
}
