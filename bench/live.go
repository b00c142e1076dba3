package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/pkt"
	"repro/internal/stats"
	"repro/pkg/loadshed"
)

// buildDir holds what the benchmark builds and its scratch files,
// relative to the repository root.
const buildDir = ".bench_build"

// buildLsd compiles the real service binary from the checkout the
// benchmark runs in. Build time is not part of any metric.
func buildLsd(root string) (string, error) {
	rel := filepath.Join(buildDir, "lsd")
	cmd := exec.Command("go", "build", "-o", rel, "./cmd/lsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/lsd: %v\n%s", err, out)
	}
	return rel, nil
}

// lsdProc is one running lsd -serve under test.
type lsdProc struct {
	cmd     *exec.Cmd
	admin   string // host:port of the admin plane
	out     bytes.Buffer
	startup time.Duration // exec → /readyz 200
	client  *http.Client
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startLsd executes lsd as a service and waits until it reports ready.
// The program is given an ingest address, a budget and a worker count —
// never the benchmark's seed or the workload's name.
func startLsd(root, bin, ingest string, capacity float64) (*lsdProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	p := &lsdProc{admin: fmt.Sprintf("127.0.0.1:%d", port), client: &http.Client{Timeout: 2 * time.Second}}
	p.cmd = exec.Command("./"+bin, "-serve", p.admin, "-ingest", ingest,
		"-capacity", strconv.FormatFloat(capacity, 'g', -1, 64), "-workers", "1")
	p.cmd.Dir = root
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.out
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // lsd must not outlive a killed benchmark
	t := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	for {
		resp, err := p.client.Get("http://" + p.admin + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t) > 15*time.Second {
			p.kill()
			return nil, fmt.Errorf("lsd not ready after 15s:\n%s", p.out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.startup = time.Since(t)
	return p, nil
}

func (p *lsdProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// scrape reads /metrics and returns the unlabelled series.
func (p *lsdProc) scrape() (map[string]float64, time.Duration, error) {
	t := time.Now()
	resp, err := p.client.Get("http://" + p.admin + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		if k, v, ok := strings.Cut(line, " "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				m[k] = f
			}
		}
	}
	return m, time.Since(t), sc.Err()
}

// stop sends SIGTERM and waits; a clean shutdown exits 0.
func (p *lsdProc) stop() (time.Duration, error) {
	t := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return 0, err
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return time.Since(t), fmt.Errorf("lsd exit after SIGTERM: %v\n%s", err, p.out.String())
		}
		return time.Since(t), nil
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return time.Since(t), fmt.Errorf("lsd did not exit within 10s of SIGTERM")
	}
}

// feedStats is what the open-loop feeder observed.
type feedStats struct {
	sentAll   int64 // packets sent since the socket opened, warm-up included
	sent      int64 // packets sent inside the timed window
	nticks    int
	chunks    []feedChunk
	lateMax   time.Duration
	sendTime  time.Duration // time inside SendBatch, timed window
	wall      time.Duration // length of the timed window
	cpu       float64       // lsd CPU seconds across the timed window
	backlog   float64       // largest number of bins lsd fell behind wall clock at any poll
	behind    float64       // bins behind that lsd stayed over the window's last polls
	scrapesMs []float64
	rssMB     []float64 // lsd's VmRSS at every poll
}

// kernelEvery is how often the live feeder runs the calibration kernel:
// after every fourth tick's packets are out. A run is 25 ms of one core
// on a box whose two cores lsd and the feeder already share, and a run
// after every tick made the feeder late.
const kernelEvery = 4

// feedChunk is a run of consecutive ticks of the timed window.
type feedChunk struct {
	ticks  []float64 // ms from when each tick was due to when its last packet was written, at nominal host speed
	raw    []float64 // the same as the clock saw them
	sent   int64
	cpu    float64   // lsd CPU seconds across the chunk
	kernel []float64 // calibration kernel runs, in the idle part of every kernelEvery-th tick
}

// liveTick is the feeder's period. lsd bins on a 100 ms wall clock of
// its own; a feeder on exactly the same period would sit at one phase
// against those bins for a whole run — a different one every run,
// wherever the two processes happened to start — and whether a tick's
// burst collides with the engine working on the previous bin depends on
// that phase. At 101 ms the phase sweeps a full cycle every 10 s, so
// every run sees every phase.
const liveTick = 101 * time.Millisecond

// feed drives lsd in an open loop from one goroutine on one socket:
// every liveTick of wall clock it sends the next perTick recorded
// packets (the same number every tick and every seed, so the offered
// rate is a property of the workload and not of the seed's traffic
// volume), whether or not the previous tick finished early. Each
// tick's latency runs from when the tick was due, so a stall charges
// the ticks it delays, and lateMax reports how late the generator
// itself ran. The first warm of the schedule is sent but not measured.
// Each chunk's times are scaled by the median of the kernel runs
// inside it.
func feed(p *lsdProc, snd *loadshed.LiveSender, pkts []pkt.Packet, perTick, chunkTicks int, warm, window, pollEvery time.Duration) (feedStats, error) {
	var fs feedStats
	const bin = 100 * time.Millisecond // lsd's wall-clock bin

	// The poller scrapes /metrics like a Prometheus server would and
	// watches that bins processed keep up with wall clock. Its results
	// are read only after it has been stopped and waited for.
	var backlogs, scrapesMs, rssMB []float64
	pid := strconv.Itoa(p.cmd.Process.Pid)
	stopPoll := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var t0 time.Time
		var b0 float64
		tk := time.NewTicker(pollEvery)
		defer tk.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tk.C:
			}
			m, d, err := p.scrape()
			if err != nil {
				continue
			}
			now := time.Now()
			scrapesMs = append(scrapesMs, float64(d.Nanoseconds())/1e6)
			rssMB = append(rssMB, procStatusMB(pid, "VmRSS"))
			if t0.IsZero() {
				t0, b0 = now, m["lsd_bins_total"]
				continue
			}
			backlogs = append(backlogs, float64(now.Sub(t0))/float64(bin)-(m["lsd_bins_total"]-b0))
		}
	}()
	stop := func() {
		close(stopPoll)
		wg.Wait()
	}

	start := time.Now()
	var timedStart time.Time
	var cpu0, cpuChunk float64
	var cur feedChunk
	closeChunk := func() {
		c := procCPUSeconds(p.cmd.Process.Pid)
		cur.cpu, cpuChunk = c-cpuChunk, c
		f := kernelNominal / stats.Median(cur.kernel)
		for _, lat := range cur.raw {
			cur.ticks = append(cur.ticks, lat*f)
		}
		fs.chunks = append(fs.chunks, cur)
		cur = feedChunk{}
	}
	next := 0
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * liveTick)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if due.Sub(start) >= warm+window {
			break // the schedule's end, reached on the clock
		}
		timed := due.Sub(start) >= warm
		if timed && timedStart.IsZero() {
			timedStart = due
			cpu0 = procCPUSeconds(p.cmd.Process.Pid)
			cpuChunk = cpu0
		}
		late := time.Since(due)
		t := time.Now()
		for left := perTick; left > 0; {
			take := min(left, len(pkts)-next)
			if err := snd.SendBatch(&pkt.Batch{Pkts: pkts[next : next+take]}); err != nil {
				stop()
				return fs, fmt.Errorf("feed tick %d: %w", k, err)
			}
			next = (next + take) % len(pkts)
			left -= take
		}
		fs.sentAll += int64(perTick)
		if timed {
			fs.sendTime += time.Since(t)
			fs.sent += int64(perTick)
			fs.nticks++
			fs.lateMax = max(fs.lateMax, late)
			lat := float64(time.Since(due).Nanoseconds()) / 1e6
			cur.raw = append(cur.raw, lat)
			if len(cur.raw)%kernelEvery == 1 {
				cur.kernel = append(cur.kernel, kernelRun())
			}
			cur.sent += int64(perTick)
			if len(cur.raw) == chunkTicks {
				closeChunk()
			}
		}
	}
	if len(cur.raw) >= chunkTicks/2 {
		closeChunk() // the window's tail, when it is long enough to count
	}
	fs.wall = time.Since(timedStart)
	fs.cpu = procCPUSeconds(p.cmd.Process.Pid) - cpu0
	stop()
	// A stall of this shared host shows as one poll's backlog and is gone
	// at the next; an lsd that cannot keep up stays behind. The largest
	// backlog is reported, the smallest of the last three polls is checked.
	if n := len(backlogs); n > 0 {
		fs.backlog, fs.behind = stats.Max(backlogs), stats.Min(backlogs[max(0, n-3):])
	}
	fs.scrapesMs, fs.rssMB = scrapesMs, rssMB
	return fs, nil
}

// settle waits for lsd to close its last bins and returns the final
// scrape: over a lossless socket every packet sent has been counted by
// then; it gives up after tries polls of 150 ms.
func settle(p *lsdProc, sent int64, tries int) (map[string]float64, error) {
	var m map[string]float64
	var err error
	for i := 0; i < tries; i++ {
		time.Sleep(150 * time.Millisecond)
		if m, _, err = p.scrape(); err == nil && int64(m["lsd_wire_packets_total"]) >= sent {
			break
		}
	}
	return m, err
}

// liveSocket returns the unixgram path as lsd sees it (relative to the
// root it runs in, which keeps it under the 108-byte sun_path limit)
// and as this process sees it.
func liveSocket(root string) (forLsd, forBench string, err error) {
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return "", "", err
	}
	rel := filepath.Join(buildDir, fmt.Sprintf("ingest-%d.sock", os.Getpid()))
	os.Remove(filepath.Join(root, rel))
	return rel, filepath.Join(root, rel), nil
}
