// The service deployment in one process: live ingest over a datagram
// socket, a cancellable stream, and the dynamic query registry — the
// pieces `lsd -serve` wires behind its HTTP admin plane, driven here
// directly so the walkthrough fits in a page. A feeder goroutine plays
// a generated trace into a loopback UDP listener paced by wall clock
// (the probe's role); the engine streams from the listener with
// wall-clock bins; mid-run a p2p-detector is added and the flows query
// removed, both taking effect at measurement-interval boundaries; a
// signal-style cancel ends the run, and the rolling snapshot prints as
// the Prometheus exposition /metrics would serve.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/pkg/loadshed"
)

const (
	seed = 21
	dur  = 4 * time.Second
)

func main() {
	// Live listener: the engine's Source is a socket, not a file. Bins
	// close on wall clock, so a silent link still advances trace time.
	live, err := loadshed.ListenLive("udp", "127.0.0.1:0", loadshed.LiveConfig{})
	check(err)

	// Feeder: generated traffic sent to the listener at its trace-time
	// pace — what `lsd -feed` does from another process.
	cfg := loadshed.CESCA2(seed, dur, 0.05)
	go func() {
		snd, err := loadshed.DialLive("udp", live.Addr().String())
		check(err)
		defer snd.Close()
		src := loadshed.NewGenerator(cfg)
		start := time.Now()
		for {
			b, ok := src.NextBatch()
			if !ok {
				return
			}
			if d := time.Until(start.Add(b.Start)); d > 0 {
				time.Sleep(d)
			}
			check(snd.SendBatch(&b))
		}
	}()

	qs := loadshed.StandardQueries(loadshed.QueryConfig{Seed: seed})
	ovh, demand := loadshed.MeasureLoad(loadshed.NewGenerator(cfg), qs, seed+1)
	sys := loadshed.New(loadshed.Config{
		Scheme:   loadshed.Predictive,
		Strategy: loadshed.MMFSPkt(),
		Capacity: ovh + demand/2, // 2x overload
		Seed:     seed + 2,
	}, loadshed.StandardQueries(loadshed.QueryConfig{Seed: seed}))

	// The run ends when this cancels — the role SIGTERM plays in the
	// daemon. Closing the source on cancel wakes a NextBatch blocked on
	// a silent socket so the engine can stop at the bin boundary.
	ctx, cancel := context.WithCancel(context.Background())
	stopIngest := context.AfterFunc(ctx, func() { live.Close() })
	defer stopIngest()
	time.AfterFunc(dur+time.Second, cancel)

	// RollingStats locks internally, so the HTTP side of the daemon reads
	// the sink the engine is writing without a wrapper; this timer
	// goroutine plays a /metrics scrape landing mid-run.
	roll := loadshed.NewRollingStats(0)
	time.AfterFunc(dur/2, func() {
		s := roll.Snapshot()
		fmt.Printf("scrape mid-run: %d bins so far, global rate %.3f over the last %d\n", s.Bins, s.MeanGlobalRate, s.WindowBins)
	})
	bins := 0
	admin := loadshed.SinkFuncs{Bin: func(*loadshed.BinStats) {
		bins++
		switch bins {
		case 20: // interval boundary at bin 30: the detector joins there
			q, err := loadshed.QueryByName("p2p-detector", loadshed.QueryConfig{Seed: seed})
			check(err)
			check(sys.AddQuery(q))
			fmt.Println("bin 20: p2p-detector registered (joins at next interval boundary)")
		case 40: // flows retires after its interval-4 flush
			check(sys.RemoveQuery("flows"))
			fmt.Println("bin 40: flows removal queued (retires at next interval boundary)")
		}
	}}

	fmt.Printf("streaming from %s ...\n", live.Addr())
	streamErr := sys.StreamContext(ctx, live, loadshed.Tee(roll, admin))
	live.Close()
	check(loadshed.SourceErr(live))
	fmt.Printf("stream ended (%v) after %d bins\n\n", streamErr, bins)

	snap := roll.Snapshot()
	for i, q := range snap.Queries {
		state := "active"
		if !snap.Active[i] {
			state = "removed"
		}
		fmt.Printf("  %-16s %-8s mean rate %.3f\n", q, state, snap.MeanRates[i])
	}
	fmt.Println("\n/metrics would serve:")
	check(snap.WritePrometheus(os.Stdout))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve example:", err)
		os.Exit(1)
	}
}
