// serve.go — the long-running service mode of lsd: live packet ingest
// feeding the streaming engine, with an HTTP admin plane for health,
// Prometheus metrics and dynamic query registration. This is the
// deployment shape of the thesis system (§2.1): a monitor that runs
// indefinitely against a live link, sheds load under overload, and is
// operated — not restarted — when the query set changes.
package main

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/pkt"
	"repro/pkg/loadshed"
)

// serveOpts holds the flags the serve mode reads on top of its engine's.
type serveOpts struct {
	engineOpts
	admin    string  // -serve: HTTP admin listen address ("" = none; -worker only)
	ingest   string  // gen | udp://host:port | unix:///path | tail:path
	capacity float64 // explicit cycle budget per bin; 0 = probe
	window   time.Duration
}

// openIngest turns an ingest spec into a Source (preset, seed, dur and
// scale parameterize the generator behind "gen"), positioned resume
// batches in: deterministic sources (the generator, a tailed file)
// resume exactly there, a live socket has no past to skip and resumes
// best-effort from the live stream. The generator is paced to its trace
// time from the first batch it delivers, so a skip is not paced. The
// returned closer is safe to call more than once and from a context
// callback: closing the source is how a signal unblocks an engine
// waiting on a silent link or a paced batch.
func openIngest(spec, preset string, seed uint64, dur time.Duration, scale float64, resume int64) (loadshed.Source, func(), string, error) {
	switch {
	case spec == "gen":
		cfg, err := loadshed.PresetConfig(preset, seed, dur, scale)
		if err != nil {
			return nil, nil, "", err
		}
		cfg.MaxBins = -1 // run until signalled
		src, stop := pace(loadshed.ResumeSource(loadshed.NewGenerator(cfg), resume))
		return src, stop, "generator (unbounded, paced, preset " + preset + ")", nil
	case strings.HasPrefix(spec, "udp://"):
		l, err := loadshed.ListenLive("udp", strings.TrimPrefix(spec, "udp://"), loadshed.LiveConfig{})
		if err != nil {
			return nil, nil, "", err
		}
		return l, func() { l.Close() }, "udp " + l.Addr().String(), nil
	case strings.HasPrefix(spec, "unix://"):
		path := strings.TrimPrefix(spec, "unix://")
		l, err := loadshed.ListenLive("unixgram", path, loadshed.LiveConfig{})
		if err != nil {
			return nil, nil, "", err
		}
		return l, func() { l.Close() }, "unixgram " + path, nil
	case strings.HasPrefix(spec, "tail:"):
		path := strings.TrimPrefix(spec, "tail:")
		ts, err := loadshed.TailFile(path, 0)
		if err != nil {
			return nil, nil, "", err
		}
		return loadshed.ResumeSource(ts, resume), func() { ts.Close() }, "tail " + path, nil
	default:
		return nil, nil, "", fmt.Errorf("unknown ingest spec %q (want gen, udp://host:port, unix:///path or tail:path)", spec)
	}
}

// pacedSource releases each batch of its source at the batch's trace
// time, measured from the first batch it delivers: the wall-clock shape
// of a capture. A wait ends early, and the source with it, when stop
// runs.
type pacedSource struct {
	loadshed.Source
	anchor  time.Time // wall time of trace time 0; zero until the first delivery
	stopped chan struct{}
}

// pace wraps src in a pacedSource and returns its stop function, safe
// to call more than once and concurrently with NextBatch.
func pace(src loadshed.Source) (*pacedSource, func()) {
	p := &pacedSource{Source: src, stopped: make(chan struct{})}
	var once sync.Once
	return p, func() { once.Do(func() { close(p.stopped) }) }
}

func (p *pacedSource) NextBatch() (pkt.Batch, bool) {
	select {
	case <-p.stopped:
		return pkt.Batch{}, false
	default:
	}
	b, ok := p.Source.NextBatch()
	if !ok {
		return b, false
	}
	if p.anchor.IsZero() {
		p.anchor = time.Now().Add(-b.Start)
		return b, true
	}
	if d := time.Until(p.anchor.Add(b.Start)); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-p.stopped:
			return pkt.Batch{}, false
		}
	}
	return b, true
}

// Reset rewinds the source; the next delivery anchors the pace anew.
func (p *pacedSource) Reset() {
	p.Source.Reset()
	p.anchor = time.Time{}
}

// Err surfaces the wrapped source's stream error.
func (p *pacedSource) Err() error { return loadshed.SourceErr(p.Source) }

// serveMode is what distinguishes the two serving deployments: plain
// -serve streams the System itself, -worker streams it wrapped in a
// cluster Node and adds its coordinator-link state to the admin plane.
type serveMode struct {
	banner  string // "serving", "serving as cluster worker"
	stream  func(context.Context, loadshed.Source, loadshed.Sink) error
	metrics func(*loadshed.MetricsWriter) // appended to /metrics; nil = nothing
	// key, when set, is the cluster key the admin plane's
	// state-changing endpoints require (authorized).
	key string
	// after runs between the end of the stream and the admin plane's
	// shutdown (nil = nothing): the worker waits for its adopted shards
	// there, still scrapeable.
	after func()
}

// runServe is the plain service mode: the engine streams the ingest
// under a fixed local budget.
func runServe(ctx context.Context, o serveOpts) {
	serveLoop(ctx, o, "capacity", func(capacity float64) (*loadshed.System, serveMode) {
		sys := loadshed.New(engineConfig(o.engineOpts, capacity), o.queries())
		return sys, serveMode{banner: "serving", stream: sys.StreamContext}
	})
}

// serveLoop is the sequence every serving deployment runs: open ingest,
// size the budget (capLabel names it in the log), let build make the
// engine and wire the mode around it, start the admin plane, stream
// until a signal or the source ends, then shut both down in order and
// surface any source error.
func serveLoop(ctx context.Context, o serveOpts, capLabel string, build func(capacity float64) (*loadshed.System, serveMode)) {
	src, closeSrc, desc, err := openIngest(o.ingest, o.preset, o.seed, o.dur, o.scale, 0)
	die(err)
	fmt.Printf("ingest: %s\n", desc)

	capacity := o.capacity
	if capacity <= 0 {
		// No explicit budget: size one from a bounded generated probe of
		// the preset profile, the same procedure as -stream. For live
		// ingest the probe is a stated proxy — the budget models the
		// machine, not the (unknown) incoming traffic.
		fmt.Println("measuring full-rate demand (generated probe) ...")
		cfg, err := loadshed.PresetConfig(o.preset, o.seed, o.dur, o.scale)
		die(err)
		capacity = sizeCapacity(loadshed.NewGenerator(cfg), o.queries(), o.seed, o.overload, capLabel)
	}

	sys, mode := build(capacity)
	windowBins := int(o.window / src.TimeBin())
	roll := loadshed.NewRollingStats(windowBins)
	live, _ := src.(*loadshed.LiveSource)

	stopAdmin := startAdmin(o.admin, adminMux(sys, roll, live, o.seed, mode.metrics, mode.key), "healthz, readyz, metrics, queries")

	fmt.Printf("%s (%s scheme) ...\n", mode.banner, o.schemeName)
	streamErr := runShard(ctx, mode.stream, src, closeSrc, roll)

	if mode.after != nil {
		mode.after()
	}
	stopAdmin()

	if streamErr != nil {
		fmt.Println("signal received: stream stopped at a bin boundary")
	}
	if err := loadshed.SourceErr(src); err != nil {
		die(fmt.Errorf("ingest failed: %w", err))
	}

	snap := roll.Snapshot()
	dropPct := 0.0
	if snap.WirePkts > 0 {
		dropPct = 100 * float64(snap.DropPkts) / float64(snap.WirePkts)
	}
	fmt.Printf("served %d bins, %d intervals: %d of %d packets dropped uncontrolled (%.3f%%)\n",
		snap.Bins, snap.Intervals, snap.DropPkts, snap.WirePkts, dropPct)
}

// runShard streams one shard's traffic through stream into sink — the
// plain service's only shard, a worker's own and every shard a worker
// adopts run here — until the source ends, the shard drains away or ctx
// fires. A signal cancels ctx and the engine stops at the next bin
// boundary; a blocking live or tail source must also be woken, which
// closing it does — NextBatch then reports end-of-stream.
func runShard(ctx context.Context, stream func(context.Context, loadshed.Source, loadshed.Sink) error, src loadshed.Source, closeSrc func(), sink loadshed.Sink) error {
	unblock := context.AfterFunc(ctx, closeSrc)
	defer unblock()
	err := stream(ctx, src, sink)
	closeSrc()
	return err
}

// The admin plane's limits. A request's header must arrive within
// adminHeaderTimeout and fit in adminMaxHeaderBytes, the whole request
// within adminReadTimeout, and a POST /queries body in maxQueryBody
// bytes. No write timeout: /debug/pprof/profile and /debug/pprof/trace
// stream for as long as their seconds= asks.
const (
	adminHeaderTimeout  = 5 * time.Second
	adminReadTimeout    = 10 * time.Second
	adminMaxHeaderBytes = 16 << 10
	maxQueryBody        = 4 << 10
)

// adminServer is the admin plane's HTTP server for mux, with its limits.
func adminServer(mux *http.ServeMux) *http.Server {
	return &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: adminHeaderTimeout,
		ReadTimeout:       adminReadTimeout,
		MaxHeaderBytes:    adminMaxHeaderBytes,
	}
}

// startAdmin serves an HTTP admin plane on addr ("" = none) and returns
// its graceful shutdown. Every mode's plane carries the runtime's
// profiles under /debug/pprof/ (CPU, heap, goroutines, execution
// trace), so where a running service spends its time can be asked of
// the service itself.
func startAdmin(addr string, mux *http.ServeMux, endpoints string) (stop func()) {
	if addr == "" {
		return func() {}
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	die(err)
	srv := adminServer(mux)
	go srv.Serve(ln)
	fmt.Printf("admin plane on http://%s (%s, debug/pprof)\n", ln.Addr(), endpoints)
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
}

// authorized guards an admin endpoint that changes state: with a key
// set, a request without "Authorization: Bearer <key>" gets 401 and
// never reaches h. The comparison takes the same time however much of
// the header matches. Without a key, h is served as it is.
func authorized(key string, h http.HandlerFunc) http.HandlerFunc {
	if key == "" {
		return h
	}
	want := []byte("Bearer " + key)
	return func(w http.ResponseWriter, r *http.Request) {
		if subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), want) != 1 {
			w.Header().Set("WWW-Authenticate", "Bearer")
			http.Error(w, "this endpoint needs the cluster key: Authorization: Bearer <key>", http.StatusUnauthorized)
			return
		}
		h(w, r)
	}
}

// adminMux builds the admin plane. Handlers run concurrently with the
// stream: snapshots go through RollingStats' own lock, registry calls go
// through the engine's own AddQuery/RemoveQuery locking, and live-source
// counters are atomics. A non-nil extraMetrics hook is appended to the
// /metrics output — worker mode uses it for its coordinator-link gauges.
// With a key, registering and removing queries need it (authorized).
func adminMux(sys *loadshed.System, roll *loadshed.RollingStats, live *loadshed.LiveSource, seed uint64, extraMetrics func(*loadshed.MetricsWriter), key string) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if roll.Snapshot().Bins == 0 {
			http.Error(w, "no bins processed yet", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := roll.Snapshot()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		snap.WritePrometheus(w)
		m := &loadshed.MetricsWriter{W: w}
		m.Gauge("lsd_up", "Whether the monitor is serving.", 1)
		if live != nil {
			m.Counter("lsd_ingest_bad_frames_total", "Frames rejected by wire-format validation.", live.BadFrames())
			m.Counter("lsd_ingest_dropped_bins_total", "Whole bins discarded because the engine lagged the listener.", live.DroppedBins())
			m.Counter("lsd_ingest_dropped_packets_total", "Packets in those discarded bins.", live.DroppedPackets())
			if rb := live.RcvBuf(); rb > 0 {
				m.Gauge("lsd_ingest_rcvbuf_bytes", "Socket receive buffer the kernel granted the UDP listener.", rb)
			}
			if drops, ok := live.KernelDrops(); ok {
				m.Counter("lsd_ingest_kernel_drops_total", "Datagrams the kernel discarded because the UDP receive buffer was full.", drops)
			}
			bufs, bytes := live.PoolStats()
			m.Gauge("lsd_ingest_pool_buffers", "Recycled bin buffers waiting for the listener to refill them.", bufs)
			m.Gauge("lsd_ingest_pool_bytes", "Bytes of capacity those buffers hold.", bytes)
		}
		if extraMetrics != nil {
			extraMetrics(m)
		}
		m.Runtime()
	})

	type queryInfo struct {
		Name   string  `json:"name"`
		Active bool    `json:"active"`
		Rate   float64 `json:"rate"`
	}
	mux.HandleFunc("GET /queries", func(w http.ResponseWriter, r *http.Request) {
		snap := roll.Snapshot()
		out := make([]queryInfo, len(snap.Queries))
		for i, q := range snap.Queries {
			out[i] = queryInfo{Name: q, Active: snap.Active[i], Rate: snap.MeanRates[i]}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})

	// POST /queries registers a query by kind; it joins at the next
	// measurement-interval boundary (the engine's quiesce point), so the
	// success status is 202 Accepted, not 200. Accepts ?kind=... or a
	// JSON body {"kind": "...", "seed": n}; a body past maxQueryBody is
	// refused with 413.
	mux.HandleFunc("POST /queries", authorized(key, func(w http.ResponseWriter, r *http.Request) {
		req := struct {
			Kind string `json:"kind"`
			Seed uint64 `json:"seed"`
		}{Seed: seed}
		r.Body = http.MaxBytesReader(w, r.Body, maxQueryBody)
		var err error
		if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
			err = json.NewDecoder(r.Body).Decode(&req)
		} else if err = r.ParseForm(); err == nil {
			req.Kind = r.Form.Get("kind")
		}
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		q, err := loadshed.QueryByName(req.Kind, loadshed.QueryConfig{Seed: req.Seed})
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := sys.AddQuery(q); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{
			"status": "accepted", "query": q.Name(),
			"note": "joins at the next measurement-interval boundary",
		})
	}))

	mux.HandleFunc("DELETE /queries/{name}", authorized(key, func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if err := sys.RemoveQuery(name); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{
			"status": "accepted", "query": name,
			"note": "retires after its final flush at the next interval boundary",
		})
	}))

	return mux
}

// runFeed is the probe half of a live deployment: it generates the
// preset traffic profile and forwards it to a serving lsd's ingest
// socket, paced so each batch is sent at its trace-time offset — the
// wall-clock shape a capture process would produce.
func runFeed(ctx context.Context, o *options) {
	spec := o.feed
	var network, addr string
	switch {
	case strings.HasPrefix(spec, "udp://"):
		network, addr = "udp", strings.TrimPrefix(spec, "udp://")
	case strings.HasPrefix(spec, "unix://"):
		network, addr = "unixgram", strings.TrimPrefix(spec, "unix://")
	default:
		die(fmt.Errorf("unknown feed target %q (want udp://host:port or unix:///path)", spec))
	}
	cfg, err := loadshed.PresetConfig(o.preset, o.seed, o.dur, o.scale)
	die(err)
	snd, err := loadshed.DialLive(network, addr)
	die(err)
	defer snd.Close()

	src, stop := pace(loadshed.NewGenerator(cfg))
	defer context.AfterFunc(ctx, stop)()
	sent := 0
	for {
		b, ok := src.NextBatch()
		if !ok {
			break
		}
		if err := snd.SendBatch(&b); err != nil {
			die(fmt.Errorf("feed: %w", err))
		}
		sent += len(b.Pkts)
	}
	if ctx.Err() != nil {
		fmt.Printf("feed interrupted after %d packets\n", sent)
		return
	}
	fmt.Printf("fed %d packets over %v of trace time to %s\n", sent, o.dur, spec)
}
