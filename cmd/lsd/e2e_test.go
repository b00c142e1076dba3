package main

// e2e_test.go — lsd end to end: each scenario runs lsd as real
// processes talking over loopback sockets, and waits on what those
// processes serve (/healthz, /readyz, /metrics, /cluster), never on a
// sleep. One scenario runs alone with
//
//	go test ./cmd/lsd -run 'TestEndToEnd/failover' -v

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/control"
	"repro/pkg/loadshed"
)

// invocations are the lsd command lines TestEndToEnd runs, by role.
// TestDocumentedInvocations parses each one, so a flag change that
// breaks a scenario fails there at parse time as well. A $WORD is
// filled in when the scenario starts the process (lsdArgs): $COORD is
// the coordinator's TCP address, $NODE a worker's name, $INGEST the
// serving lsd's UDP ingest address, $KEYFILE the file holding the
// cluster key and $STATE the coordinator's state directory. Every listener binds port 0; the
// address it got is read from lsd's banner.
var invocations = map[string]string{
	"serve":          "-serve 127.0.0.1:0 -ingest udp://127.0.0.1:0 -dur 5s -window 10s",
	"feed":           "-feed udp://$INGEST -dur 3s",
	"stream":         "-stream -max-bins 120 -dur 10s -report 4s",
	"coordinator":    "-coordinator 127.0.0.1:0 -shard-policy mmfs_cpu -capacity 2e6 -heartbeat 100ms -serve 127.0.0.1:0",
	"worker":         "-worker $COORD -node $NODE -capacity 60000 -serve 127.0.0.1:0",
	"ha-coordinator": "-coordinator 127.0.0.1:0 -shard-policy mmfs_cpu -capacity 2e6 -heartbeat 100ms -grace 1s -cluster-key-file $KEYFILE -state-dir $STATE -serve 127.0.0.1:0",
	"ha-worker":      "-worker $COORD -node $NODE -capacity 60000 -cluster-key-file $KEYFILE -checkpoint-every 2 -custom=false -serve 127.0.0.1:0",
	"lost-worker":    "-worker $COORD -node lost -capacity 60000 -join-timeout 1s -serve 127.0.0.1:0",
}

// lsdArgs expands role's invocation; vars pairs each $WORD with its value.
func lsdArgs(role string, vars ...string) []string {
	return strings.Fields(strings.NewReplacer(vars...).Replace(invocations[role]))
}

// childEnv set in the environment makes the test binary run lsd's main
// on its arguments instead of the tests: the scenarios run the code
// under test as it is built, race detector included, without a go build.
const childEnv = "LSD_E2E_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError) // lsd's flags only
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// deadline bounds every wait but the one for a clean exit after
// SIGTERM, which shutdownDeadline bounds. A wait that runs out fails the
// test with the last state it saw.
const (
	deadline         = 20 * time.Second
	shutdownDeadline = 10 * time.Second
)

// The banners that carry the addresses lsd bound.
var (
	adminBanner  = regexp.MustCompile(`admin plane on http://(\S+) `)
	coordBanner  = regexp.MustCompile(`coordinator on (\S+): `)
	ingestBanner = regexp.MustCompile(`ingest: udp (\S+)`)
)

// TestEndToEnd runs lsd's four end-to-end scenarios in parallel, each
// on its own processes, ports and state.
func TestEndToEnd(t *testing.T) {
	t.Run("daemon", func(t *testing.T) { t.Parallel(); daemonScenario(t) })
	t.Run("cluster", func(t *testing.T) { t.Parallel(); clusterScenario(t) })
	t.Run("failover", func(t *testing.T) { t.Parallel(); failoverScenario(t) })
	t.Run("stream", func(t *testing.T) { t.Parallel(); streamScenario(t) })
}

// daemonScenario: boot lsd -serve on live UDP ingest, feed it, probe
// every admin endpoint, register and remove a query through the API,
// then SIGTERM and require a clean exit.
func daemonScenario(t *testing.T) {
	// Flag-name typos die at startup, before the multi-second demand
	// probe (which announces itself with "measuring ...").
	bogus := startLsd(t, "bogus", "-scheme", "bogus")
	if err := bogus.wait(deadline); err == nil {
		t.Fatal("lsd -scheme bogus exited 0")
	}
	if strings.Contains(bogus.output(), "measuring") {
		t.Fatalf("lsd -scheme bogus measured demand before rejecting the flag:\n%s", bogus.output())
	}

	srv := startLsd(t, "serve", lsdArgs("serve")...)
	admin := "http://" + srv.banner(adminBanner)
	waitBody(t, admin+"/healthz", "ok")

	// The runtime's profiles ride on the same plane.
	if code, body := call("GET", admin+"/debug/pprof/cmdline", ""); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline answered %d: %s", code, body)
	}

	// Real traffic over the ingest socket; readiness follows the first
	// processed bin.
	feed := startLsd(t, "feed", lsdArgs("feed", "$INGEST", srv.banner(ingestBanner))...)
	if err := feed.wait(deadline); err != nil {
		t.Fatalf("lsd -feed: %v\n%s", err, feed.output())
	}
	waitBody(t, admin+"/readyz", "ready")

	// The exposition carries the advertised metric families.
	_, metrics := call("GET", admin+"/metrics", "")
	for _, m := range []string{
		"lsd_up", "lsd_bins_total", "lsd_wire_packets_total",
		"lsd_window_drop_fraction", "lsd_window_unsampled_fraction",
		"lsd_window_budget_utilization", "lsd_query_rate",
		"lsd_ingest_bad_frames_total", "lsd_ingest_dropped_bins_total",
		"lsd_ingest_dropped_packets_total", "lsd_ingest_kernel_drops_total",
		"lsd_ingest_rcvbuf_bytes", "lsd_ingest_pool_buffers", "lsd_ingest_pool_bytes",
		"go_gc_cycles_total", "go_gc_cpu_fraction", "go_heap_inuse_bytes", "go_goroutines",
	} {
		if !regexp.MustCompile(`(?m)^` + m).MatchString(metrics) {
			t.Errorf("/metrics has no %s", m)
		}
	}
	if v, _ := metric(metrics, "lsd_wire_packets_total"); v < 1 {
		t.Fatalf("no packets counted after feeding:\n%s", metrics)
	}

	// Dynamic registry over the API: p2p-detector is not in the
	// standard set, so registration is accepted, applied at the next
	// interval boundary, and removable again.
	if code, body := call("POST", admin+"/queries?kind=p2p-detector", ""); code != http.StatusAccepted || !strings.Contains(body, "accepted") {
		t.Fatalf("POST /queries?kind=p2p-detector: %d %s", code, body)
	}
	waitBody(t, admin+"/queries", `"name":"p2p-detector","active":true`)
	waitBody(t, admin+"/metrics", `lsd_query_active{query="p2p-detector"} 1`)
	if code, body := call("DELETE", admin+"/queries/p2p-detector", ""); code != http.StatusAccepted || !strings.Contains(body, "accepted") {
		t.Fatalf("DELETE /queries/p2p-detector: %d %s", code, body)
	}
	waitBody(t, admin+"/queries", `"name":"p2p-detector","active":false`)

	// Graceful shutdown: SIGTERM finishes the bin, flushes, exits 0.
	stop(srv)
}

// clusterScenario: the budget coordinator and two TCP workers; grants
// flow through /cluster and /metrics; a hard-killed worker is marked
// partitioned while the survivor absorbs the whole budget; a restarted
// one rejoins; every process exits cleanly on SIGTERM.
func clusterScenario(t *testing.T) {
	const total = 2e6
	coordProc, coord, coordAdmin := startCoordinator(t, "coordinator")
	alpha, alphaAdmin := startWorker(t, "worker", "alpha", coord, coordAdmin)
	beta, _ := startWorker(t, "worker", "beta", coord, coordAdmin)

	// Both nodes joined and report demand; neither is partitioned.
	if nodes, state := clusterNodes(coordAdmin); nodes["alpha"].Partitioned || nodes["beta"].Partitioned {
		t.Fatalf("a node is partitioned before any failure:\n%s", state)
	}

	// The coordinator exposes per-node budget, demand and partition
	// state; both grants are live and sum to the total.
	_, metrics := call("GET", coordAdmin+"/metrics", "")
	for _, m := range []string{
		"lsd_cluster_nodes", "lsd_cluster_total_capacity", "go_gc_cycles_total", "go_goroutines",
		`lsd_node_budget{node="alpha"}`, `lsd_node_budget{node="beta"}`,
		`lsd_node_demand{node="alpha"}`, `lsd_node_partitioned{node="beta"}`,
	} {
		if !strings.Contains(metrics, m) {
			t.Errorf("coordinator /metrics has no %s", m)
		}
	}
	if v, _ := metric(metrics, "lsd_cluster_nodes"); v != 2 {
		t.Fatalf("lsd_cluster_nodes = %v, want 2", v)
	}
	waitMetrics(t, coordAdmin, "grants of alpha and beta summing to the total", func(m string) bool {
		a, _ := metric(m, `lsd_node_budget{node="alpha"}`)
		b, _ := metric(m, `lsd_node_budget{node="beta"}`)
		return a > 0 && b > 0 && a+b > 0.99*total && a+b < 1.01*total
	})

	// The workers see the same picture from their side of the link.
	_, metrics = call("GET", alphaAdmin+"/metrics", "")
	for name, ok := range map[string]func(float64) bool{
		"lsd_coord_connected": func(v float64) bool { return v == 1 },
		"lsd_coord_degraded":  func(v float64) bool { return v == 0 },
		"go_goroutines":       func(v float64) bool { return v > 0 },
	} {
		if v, found := metric(metrics, name); !found || !ok(v) {
			t.Errorf("alpha's %s = %v (present %v)", name, v, found)
		}
	}

	// Partition: hard-kill beta. The coordinator marks it partitioned
	// once its lease expires, and the survivor keeps shedding — now
	// under (almost) the whole machine budget.
	beta.kill()
	waitNode(t, coordAdmin, "beta", "partitioned", func(n control.CoordNodeStatus) bool { return n.Partitioned })
	waitBody(t, alphaAdmin+"/healthz", "ok")
	waitMetrics(t, coordAdmin, "alpha's grant above 99% of the total", func(m string) bool {
		a, _ := metric(m, `lsd_node_budget{node="alpha"}`)
		return a > 0.99*total
	})
	waitMetrics(t, alphaAdmin, "alpha's engine under that budget", func(m string) bool {
		a, _ := metric(m, "lsd_node_capacity")
		return a > 0.99*total
	})

	// Rejoin: a worker reconnecting under the same name clears the
	// partition and wins back a share of the budget.
	beta, _ = startWorker(t, "worker", "beta", coord, coordAdmin)
	waitNode(t, coordAdmin, "beta", "rejoined", func(n control.CoordNodeStatus) bool { return !n.Partitioned })
	waitMetrics(t, coordAdmin, "a grant for the rejoined beta", func(m string) bool {
		b, _ := metric(m, `lsd_node_budget{node="beta"}`)
		return b > 0
	})

	stop(alpha, beta)
	stop(coordProc)
}

// failoverScenario: a PSK-authenticated coordinator with a state
// directory and checkpointing workers; durable checkpoints land; a
// kill -9'd worker's shard is adopted by the survivor from its last
// checkpoint, then live-migrated onto a third worker; a keyless rogue
// is rejected; -join-timeout fails fast against a dead coordinator;
// every process exits cleanly on SIGTERM.
func failoverScenario(t *testing.T) {
	const key = "e2e-secret"
	keyFile := filepath.Join(t.TempDir(), "cluster.key")
	if err := os.WriteFile(keyFile, []byte(key+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	coordProc, coord, coordAdmin := startCoordinator(t, "ha-coordinator", "$KEYFILE", keyFile, "$STATE", stateDir)
	// The key stays off the command line the admin plane serves.
	if code, body := call("GET", coordAdmin+"/debug/pprof/cmdline", ""); code != http.StatusOK || strings.Contains(body, key) {
		t.Fatalf("/debug/pprof/cmdline answered %d with the cluster key in it, or failed:\n%s", code, body)
	}

	// Checkpoints need the base shedding plane (-custom=false): custom
	// query state lives outside the snapshot.
	alpha, alphaAdmin := startWorker(t, "ha-worker", "alpha", coord, coordAdmin, "$KEYFILE", keyFile)
	beta, _ := startWorker(t, "ha-worker", "beta", coord, coordAdmin, "$KEYFILE", keyFile)

	// Durable checkpoints land: shipped by the workers, retained by the
	// coordinator, spilled to the state directory.
	waitMetric(t, alphaAdmin, "lsd_checkpoints_total", 1)
	waitMetric(t, coordAdmin, "lsd_cluster_checkpoints_total", 2)
	waitMetric(t, coordAdmin, `lsd_node_checkpoint_bin{node="beta"}`, 0)
	if spilled, _ := filepath.Glob(filepath.Join(stateDir, "*.ckpt")); len(spilled) == 0 {
		t.Fatal("no checkpoint spilled to the state directory")
	}

	// Crash failover: hard-kill beta. Past lease + grace the coordinator
	// offers beta's shard, checkpoint included, to the survivor, which
	// resumes it under the dead shard's name: beta reports live again
	// without its process existing.
	beta.kill()
	waitNode(t, coordAdmin, "beta", "partitioned", func(n control.CoordNodeStatus) bool { return n.Partitioned })
	waitMetric(t, alphaAdmin, "lsd_adopted_shards", 1)
	waitMetric(t, coordAdmin, "lsd_cluster_failover_offers_total", 1)
	waitNode(t, coordAdmin, "beta", "live again under its adopter", func(n control.CoordNodeStatus) bool { return !n.Partitioned })

	// Planned migration: a third worker joins, then /cluster/migrate
	// moves the adopted beta shard onto it. The source drains at a bin
	// boundary, the final checkpoint transfers, the target resumes.
	gamma, gammaAdmin := startWorker(t, "ha-worker", "gamma", coord, coordAdmin, "$KEYFILE", keyFile)
	if code, body := call("POST", coordAdmin+"/cluster/migrate", "from=beta&to=gamma"); code != http.StatusAccepted {
		t.Fatalf("POST /cluster/migrate from=beta&to=gamma: %d %s", code, body)
	}
	waitMetric(t, gammaAdmin, "lsd_adopted_shards", 1)
	waitMetrics(t, alphaAdmin, "alpha released the migrated shard", func(m string) bool {
		v, ok := metric(m, "lsd_adopted_shards")
		return ok && v == 0
	})
	waitNode(t, coordAdmin, "beta", "live on gamma", func(n control.CoordNodeStatus) bool { return !n.Partitioned })

	// Bad migrations are rejected up front.
	if code, body := call("POST", coordAdmin+"/cluster/migrate", "from=beta&to=beta"); code != http.StatusBadRequest {
		t.Fatalf("self-migration answered %d, want 400: %s", code, body)
	}

	// Auth: a keyless rogue worker is rejected and counted; it never joins.
	rogue := startLsd(t, "rogue", lsdArgs("worker", "$COORD", coord, "$NODE", "rogue")...)
	waitMetric(t, coordAdmin, "lsd_coord_auth_failures_total", 1)
	nodes, state := clusterNodes(coordAdmin)
	if _, joined := nodes["rogue"]; nodes == nil || joined {
		t.Fatalf("unauthenticated worker joined the cluster, or /cluster failed:\n%s", state)
	}
	rogue.kill()

	// Join timeout: a worker aimed at a dead coordinator exits nonzero
	// within its -join-timeout instead of redialing forever. The dead
	// address is a port just bound and released, so nothing listens.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	lost := startLsd(t, "lost", lsdArgs("lost-worker", "$COORD", dead)...)
	if err := lost.wait(deadline); err == nil {
		t.Fatalf("a worker with a dead coordinator exited 0:\n%s", lost.output())
	}

	// Clean shutdown: alpha waits out its adopted shards (none left),
	// gamma stops the one it adopted, then the coordinator.
	stop(alpha, gamma)
	stop(coordProc)
}

// TestCoordinatorServesPastBadStateFile: one state-directory file that
// does not reload, a bare checkpoint an older build spilled, costs only
// itself. The coordinator warns, naming it, and serves the shard that
// did reload.
func TestCoordinatorServesPastBadStateFile(t *testing.T) {
	dir := t.TempDir()
	spill := control.NewCoordinator(loadshed.MMFSCPU(), 1000)
	if err := spill.SetStateDir(dir, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := control.NewLoopback(spill, "kept", 0).Checkpoint([]byte("blob"), 7, false); err != nil {
		t.Fatal(err)
	}
	keyFile := filepath.Join(t.TempDir(), "cluster.key")
	for path, data := range map[string]string{filepath.Join(dir, "old.ckpt"): "bare", keyFile: "k"} {
		if err := os.WriteFile(path, []byte(data), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	p, _, admin := startCoordinator(t, "ha-coordinator", "$KEYFILE", keyFile, "$STATE", dir)
	if out := p.output(); !regexp.MustCompile(`warning: .*old\.ckpt`).MatchString(out) {
		t.Fatalf("no warning naming old.ckpt:\n%s", out)
	}
	waitNode(t, admin, "kept", "reloaded at bin 7", func(n control.CoordNodeStatus) bool { return n.CheckpointBin == 7 })
	stop(p)
}

// streamScenario: the constant-memory streaming runtime runs its bins
// to the end, prints its rolling report every -report of trace time
// and exits 0.
func streamScenario(t *testing.T) {
	p := startLsd(t, "stream", lsdArgs("stream")...)
	if err := p.wait(deadline); err != nil {
		t.Fatalf("lsd -stream: %v\n%s", err, p.output())
	}
	// 120 bins of 100 ms with a report every 4 s: reports at 4, 8 and
	// 12 s of trace time, then the summary.
	out := p.output()
	reports := regexp.MustCompile(`(?m)^(\d+s) +\d`).FindAllStringSubmatch(out, -1)
	var at []string
	for _, r := range reports {
		at = append(at, r[1])
	}
	if strings.Join(at, " ") != "4s 8s 12s" || !strings.Contains(out, "stream ended after 120 bins") {
		t.Fatalf("lsd -stream reported at %v, want 4s 8s 12s, then ended after 120 bins:\n%s", at, out)
	}
}

// startCoordinator runs role's coordinator and waits for its admin
// plane; it returns the process, the TCP address workers join and the
// admin plane's URL.
func startCoordinator(t *testing.T, role string, vars ...string) (*lsdProc, string, string) {
	t.Helper()
	p := startLsd(t, "coordinator", lsdArgs(role, vars...)...)
	coord := p.banner(coordBanner)
	admin := "http://" + p.banner(adminBanner)
	waitBody(t, admin+"/healthz", "ok")
	return p, coord, admin
}

// startWorker runs role's worker named name against the coordinator at
// coord, and waits until it serves bins and coordAdmin lists it; it
// returns the process and its admin plane's URL.
func startWorker(t *testing.T, role, name, coord, coordAdmin string, vars ...string) (*lsdProc, string) {
	t.Helper()
	p := startLsd(t, name, lsdArgs(role, append(vars, "$COORD", coord, "$NODE", name)...)...)
	admin := "http://" + p.banner(adminBanner)
	waitBody(t, admin+"/readyz", "ready")
	waitNode(t, coordAdmin, name, "joined", func(control.CoordNodeStatus) bool { return true })
	return p, admin
}

// lsdProc is one lsd child process. Its combined output is kept for
// the banners and for failure messages.
type lsdProc struct {
	t    *testing.T
	name string
	cmd  *exec.Cmd
	mu   sync.Mutex
	out  bytes.Buffer
	done chan struct{} // closed once the process has exited
	err  error         // cmd.Wait's result, set before done closes
}

// startLsd runs lsd on args; name labels the process in failures. The
// process is killed when the test ends, and when the test binary dies.
func startLsd(t *testing.T, name string, args ...string) *lsdProc {
	t.Helper()
	p := &lsdProc{t: t, name: name, done: make(chan struct{})}
	p.cmd = exec.Command(os.Args[0], args...)
	p.cmd.Env = append(os.Environ(), childEnv+"=1")
	p.cmd.Stdout, p.cmd.Stderr = p, p
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start lsd %s: %v", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.done
		out := p.output()
		t.Logf("lsd %s (%s):\n%s", strings.Join(args, " "), name, out)
		// A killed child never reaches the race detector's exit status.
		if strings.Contains(out, "WARNING: DATA RACE") {
			t.Errorf("lsd %s raced", name)
		}
	})
	return p
}

func (p *lsdProc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.Write(b)
}

func (p *lsdProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// banner waits for re to match the output and returns its first group.
func (p *lsdProc) banner(re *regexp.Regexp) string {
	p.t.Helper()
	var got string
	poll(p.t, "lsd "+p.name+" banner "+re.String(), func() (bool, string) {
		out := p.output()
		if m := re.FindStringSubmatch(out); m != nil {
			got = m[1]
			return true, ""
		}
		select {
		case <-p.done:
			p.t.Fatalf("lsd %s exited (%v) before its banner %s:\n%s", p.name, p.err, re, out)
		default:
		}
		return false, out
	})
	return got
}

// wait waits up to timeout for the process to exit and returns how it did.
func (p *lsdProc) wait(timeout time.Duration) error {
	p.t.Helper()
	select {
	case <-p.done:
		return p.err
	case <-time.After(timeout):
		p.t.Fatalf("lsd %s still running %v on:\n%s", p.name, timeout, p.output())
		return nil
	}
}

// kill is kill -9, and waits for the process to be gone.
func (p *lsdProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// stop sends every process SIGTERM at once, as a supervisor stopping a
// host would, then requires each to exit 0 in time.
func stop(ps ...*lsdProc) {
	for _, p := range ps {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range ps {
		if err := p.wait(shutdownDeadline); err != nil {
			p.t.Fatalf("lsd %s after SIGTERM: %v\n%s", p.name, err, p.output())
		}
	}
}

// poll calls cond until it holds, and fails the test with the last
// state cond described if it does not hold within the deadline.
func poll(t *testing.T, what string, cond func() (bool, string)) {
	t.Helper()
	timeout := time.NewTimer(deadline)
	defer timeout.Stop()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		ok, state := cond()
		if ok {
			return
		}
		select {
		case <-timeout.C:
			t.Fatalf("%s: not within %v; last state:\n%s", what, deadline, state)
		case <-tick.C:
		}
	}
}

var client = &http.Client{Timeout: 2 * time.Second}

// call makes one request (a non-empty body is sent as a form) and
// returns the status and body; status 0 and the error when it failed.
func call(method, url, form string) (int, string) {
	req, err := http.NewRequest(method, url, strings.NewReader(form))
	if err != nil {
		return 0, err.Error()
	}
	if form != "" {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err.Error()
	}
	return resp.StatusCode, string(b)
}

// waitBody waits for GET url to answer 200 with a body containing want.
func waitBody(t *testing.T, url, want string) {
	t.Helper()
	poll(t, "GET "+url+" containing "+want, func() (bool, string) {
		code, body := call("GET", url, "")
		return code == http.StatusOK && strings.Contains(body, want), strconv.Itoa(code) + " " + body
	})
}

// metric returns the sample of the series named exactly name, labels
// included, in a /metrics body.
func metric(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if k, v, ok := strings.Cut(line, " "); ok && k == name {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// waitMetrics waits for cond to hold over admin's /metrics.
func waitMetrics(t *testing.T, admin, what string, cond func(metrics string) bool) {
	t.Helper()
	poll(t, what+" in "+admin+"/metrics", func() (bool, string) {
		_, body := call("GET", admin+"/metrics", "")
		return cond(body), body
	})
}

// waitMetric waits for admin's series name to reach at least floor.
func waitMetric(t *testing.T, admin, name string, floor float64) {
	t.Helper()
	waitMetrics(t, admin, name+" >= "+strconv.FormatFloat(floor, 'g', -1, 64), func(m string) bool {
		v, ok := metric(m, name)
		return ok && v >= floor
	})
}

// clusterNodes reads the coordinator's /cluster listing by node name,
// with the raw answer as the state to report; nil when it failed.
func clusterNodes(admin string) (map[string]control.CoordNodeStatus, string) {
	code, body := call("GET", admin+"/cluster", "")
	var listing struct{ Nodes []control.CoordNodeStatus }
	if code != http.StatusOK || json.Unmarshal([]byte(body), &listing) != nil {
		return nil, body
	}
	nodes := map[string]control.CoordNodeStatus{}
	for _, n := range listing.Nodes {
		nodes[n.Name] = n
	}
	return nodes, body
}

// waitNode waits for /cluster to list node in a state cond accepts.
func waitNode(t *testing.T, admin, node, what string, cond func(control.CoordNodeStatus) bool) {
	t.Helper()
	poll(t, "/cluster showing "+node+" "+what, func() (bool, string) {
		nodes, state := clusterNodes(admin)
		n, ok := nodes[node]
		return ok && cond(n), state
	})
}
