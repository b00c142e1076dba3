package control

// sim_test.go — the control plane under one deterministic simulator.
// The real Coordinator and one real workerLink per worker instance
// exchange encoded wire frames over simulated connections, on a
// virtual clock and a seed: no goroutines, no wall clock, no map order.
// The faults are ones TCP can produce: a connection dying with frames
// in flight, latency (one per run), partition and heal, checkpoint loss
// (its connection dies with it in flight), worker crash and restart,
// coordinator restart from its state directory, and migration during a
// partition. The invariants in check, checkRound, checkOffer and step
// hold after every event; a failure prints the run's event list and
// the command that replays it.

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/hash"
	"repro/internal/sched"
)

const (
	simHeartbeat = 50 * time.Millisecond
	simLease     = 3 * simHeartbeat // CoordServerConfig's defaults, scaled
	simGrace     = 2 * simLease
	simBin       = 100 * time.Millisecond
	simEvery     = 5 // bins per checkpoint: a worker's interval boundary
	simTotal     = 1000.0
	ms           = time.Millisecond
)

var simEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

type simEvent struct {
	at time.Time
	do func()
}

// sim is one simulated cluster: a coordinator process that can restart
// from its state directory, and worker instances, each one shard under
// a name, on connections that deliver frames in order after a latency.
type sim struct {
	tb       testing.TB
	rng      *hash.XorShift
	now      time.Time
	events   []simEvent // by time; equal times in scheduling order
	log      []string
	latency  time.Duration
	traceLen int64
	dir      string       // state directory; "" = none
	coord    *Coordinator // nil while down
	bound    conns[*simConn]
	conns    []*simConn
	workers  []*simWorker
	offers   []string       // adopt frames sent: "shard to adopter at bin"
	perMark  map[string]int // adopt frames sent per offer marking
}

// simConn is one connection. A frame crosses it after the latency, and
// while its worker is partitioned it waits for the heal. A nil frame
// stands for the FIN of an orderly close.
type simConn struct {
	id     int
	w      *simWorker
	name   string // bound by the hello; "" before
	dead   bool   // both ends closed; frames in flight are lost
	closed bool   // the coordinator closed its end
}

// simWorker is one worker instance, running a shard's bins on the real
// workerLink the way a Node runs them on CoordClient.
type simWorker struct {
	link       workerLink
	conn       *simConn // nil while disconnected
	bin, start int64
	demand     float64
	alive      bool
	mute       bool // joins, never reports
	partition  bool
	held       []func() // frames waiting out the partition
	loseCkpt   bool     // the next checkpoint dies with its connection
	dials      int
	grantAt    time.Time // arrival of the last grant frame
	grantCap   float64
}

func newSim(tb testing.TB, seed uint64) *sim {
	return &sim{tb: tb, rng: hash.NewXorShift(seed), now: simEpoch, latency: 2 * ms, traceLen: 1 << 20, perMark: map[string]int{}}
}

func (s *sim) at(t time.Time, do func()) {
	i := sort.Search(len(s.events), func(i int) bool { return s.events[i].at.After(t) })
	s.events = slices.Insert(s.events, i, simEvent{t, do})
}

func (s *sim) after(d time.Duration, do func()) { s.at(s.now.Add(d), do) }

// run executes the events up to d past the epoch, checking after each.
func (s *sim) run(d time.Duration) {
	for len(s.events) > 0 && !s.events[0].at.After(simEpoch.Add(d)) {
		ev := s.events[0]
		s.events, s.now = s.events[1:], ev.at
		ev.do()
		s.check()
	}
	s.now = simEpoch.Add(d)
}

func (s *sim) logf(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf("%8.3fs  ", s.now.Sub(simEpoch).Seconds())+fmt.Sprintf(format, args...))
}

// expect fails the run, printing its event list, unless ok.
func (s *sim) expect(ok bool, format string, args ...any) {
	s.tb.Helper()
	if !ok {
		s.tb.Fatalf("at %.3fs: %s\nevents:\n%s\nreplay: go test ./internal/control -run '^%s$' -v",
			s.now.Sub(simEpoch).Seconds(), fmt.Sprintf(format, args...), strings.Join(s.log, "\n"), s.tb.Name())
	}
}

// --- the coordinator process ---

func (s *sim) startCoordinator() {
	c := NewCoordinator(sched.MMFSCPU{}, simTotal)
	if s.dir != "" {
		err := c.SetStateDir(s.dir, s.now)
		s.expect(err == nil, "state dir: %v", err)
	}
	s.coord, s.bound = c, make(conns[*simConn])
	s.logf("coordinator up, %d checkpoints reloaded", c.CheckpointsStored())
	s.heartbeat(c)
}

func (s *sim) heartbeat(c *Coordinator) {
	s.after(simHeartbeat, func() {
		if s.coord != c {
			return // this coordinator has stopped
		}
		c.tick(s.now, simLease, simGrace)
		s.checkRound()
		for _, name := range slices.Sorted(maps.Keys(s.bound)) {
			conn := s.bound[name]
			c.pump(name, func(build func([]byte) []byte) error {
				if conn.dead || conn.closed {
					return errors.New("connection closed")
				}
				msg := build(nil)
				if p, blob := s.split(msg); p[0] == coordMsgAdopt {
					s.checkOffer(name, p, blob)
				}
				s.deliver(conn, true, msg)
				return nil
			})
		}
		s.heartbeat(c)
	})
}

// --- workers ---

// spawn starts an instance of shard name at bin; its first bin runs one
// bin period from now.
func (s *sim) spawn(name string, bin int64) *simWorker {
	w := &simWorker{link: newWorkerLink(name, CoordClientConfig{Lease: simLease}), bin: bin, start: bin, demand: 100 + 800*s.rng.Float64(), alive: true}
	s.workers = append(s.workers, w)
	s.logf("%s starts at bin %d", name, bin)
	s.dial(w)
	s.after(simBin, func() { s.step(w) })
	return w
}

func (s *sim) dial(w *simWorker) {
	switch {
	case !w.alive || w.conn != nil:
	case s.coord == nil:
		s.logf("%s: dial refused", w.link.name)
		s.at(w.link.redialAt(s.now), func() { s.dial(w) })
	default:
		w.conn = &simConn{id: len(s.conns), w: w}
		s.conns = append(s.conns, w.conn)
		w.dials++
		s.logf("%s dials conn %d", w.link.name, w.conn.id)
		s.send(w, w.link.hello(nil, nil))
		w.link.joined()
	}
}

func (s *sim) send(w *simWorker, msg []byte) {
	if w.conn != nil {
		s.deliver(w.conn, false, msg)
	}
}

// step runs one bin of w as a Node does: read the grant (a Node applies
// it when it is lease-fresh and keeps its last capacity otherwise),
// report, and at an interval boundary send a checkpoint — the final one
// of a drain, after which the instance stops. Nothing here waits on the
// coordinator.
func (s *sim) step(w *simWorker) {
	if !w.alive {
		return
	}
	g, ok := w.link.fresh(s.now)
	want := !w.grantAt.IsZero() && s.now.Sub(w.grantAt) <= simLease
	s.expect(ok == want && (!ok || g.Capacity == w.grantCap), "%s: Grant = (%v, %v); the last grant (%v) arrived at %v",
		w.link.name, g.Capacity, ok, w.grantCap, w.grantAt.Sub(simEpoch))
	if w.bin == s.traceLen {
		s.send(w, appendReportFrame(nil, DemandReport{Bin: w.bin, Done: true}))
		s.stop(w)
		return
	}
	// A drain whose final checkpoint cannot be sent keeps serving.
	boundary := w.bin > w.start && w.bin%simEvery == 0 && w.conn != nil
	final := boundary && w.link.drainReq
	if !w.mute && !final {
		s.send(w, appendReportFrame(nil, DemandReport{Bin: w.bin, Demand: w.demand}))
	}
	if boundary {
		blob := fmt.Appendf(nil, "%s@%d", w.link.name, w.bin)
		s.logf("%s checkpoints bin %d (final %v) on conn %d", w.link.name, w.bin, final, w.conn.id)
		s.send(w, append(appendCheckpointFrame(nil, w.bin, final, len(blob)), blob...))
		if w.loseCkpt {
			w.loseCkpt = false
			s.logf("fault: the checkpoint is lost with its connection")
			s.reset(w.conn)
		}
	}
	if final {
		s.stop(w)
		return
	}
	w.bin++
	s.after(simBin, func() { s.step(w) })
}

// stop ends an instance in order: its connection closes behind the
// frames already sent.
func (s *sim) stop(w *simWorker) {
	s.logf("%s stops at bin %d", w.link.name, w.bin)
	s.send(w, nil)
	w.alive, w.conn = false, nil
}

// setPartition cuts w off, or heals it and delivers what was held.
func (s *sim) setPartition(w *simWorker, on bool) {
	s.logf("%s partitioned %v, %d frames held", w.link.name, on, len(w.held))
	held := w.held
	w.partition, w.held = on, nil
	for _, f := range held {
		f()
	}
}

// --- connections ---

// reset closes c at both ends at once; frames in flight are lost, and
// its worker, if still on it, redials.
func (s *sim) reset(c *simConn) {
	if w := c.w; !c.dead {
		s.logf("conn %d (%s) down", c.id, w.link.name)
		c.dead = true
		s.bound.unbind(c.name, c)
		if w.conn == c {
			w.conn = nil
			if w.alive {
				s.at(w.link.redialAt(s.now), func() { s.dial(w) })
			}
		}
	}
}

func (s *sim) deliver(c *simConn, down bool, msg []byte) {
	s.after(s.latency, func() { s.arrive(c, down, msg) })
}

// arrive hands msg to its end of c — down is toward the worker — or
// holds it while c's worker is partitioned.
func (s *sim) arrive(c *simConn, down bool, msg []byte) {
	w := c.w
	switch {
	case c.dead || !down && c.closed:
	case w.partition:
		w.held = append(w.held, func() { s.arrive(c, down, msg) })
	case msg == nil: // FIN
		s.reset(c)
	case down && w.conn == c:
		p, blob := s.split(msg)
		if g, ok := decodeGrant(p); ok && p[0] == coordMsgGrant {
			w.grantAt, w.grantCap = s.now, g.Capacity
		}
		if o, ok := w.link.frame(p, blob, s.now); ok {
			s.expect(string(o.Checkpoint) == fmt.Sprintf("%s@%d", o.Shard, o.Bin), "offer of %s at bin %d carries %q", o.Shard, o.Bin, o.Checkpoint)
			s.logf("%s adopts %s", w.link.name, o.Shard)
			s.spawn(o.Shard, o.Bin) // resumes at the retained checkpoint's bin
		}
	case !down && c.name == "":
		p, _ := s.split(msg)
		name, ok, _ := s.coord.admit(p, "", nil)
		s.expect(ok, "conn %d: hello refused", c.id)
		s.logf("%s hello on conn %d", name, c.id)
		c.name = name
		if old := s.bound.bind(name, c); old != nil {
			s.logf("conn %d supersedes conn %d", c.id, old.id)
			old.closed = true
			s.deliver(old, true, nil)
		}
	case !down:
		p, blob := s.split(msg)
		s.coord.serve(c.name, p, blob, s.now)
	}
}

// split parses one message the way a link reads it: a frame, then the
// blob its header announces.
func (s *sim) split(msg []byte) (p, blob []byte) {
	p, err := readCoordFrame(bytes.NewReader(msg), nil)
	n, ok := trailerLen(p)
	s.expect(err == nil && len(p) > 0 && ok && 2+len(p)+n == len(msg), "malformed message % x", msg)
	return p, msg[2+len(p):]
}

// --- invariants ---

// check runs after every event: at most one open connection per name.
func (s *sim) check() {
	open := map[string]bool{}
	for _, c := range s.conns {
		if c.name != "" && !c.dead && !c.closed {
			s.expect(!open[c.name], "two open connections for %s", c.name)
			open[c.name] = true
		}
	}
}

// checkRound runs after every tick: the round's grants sum to at most
// the total and went to exactly the live nodes, among them every node
// that reported within the heartbeat, a healed one included.
func (s *sim) checkRound() {
	c, sum := s.coord, 0.0
	for _, n := range c.nodes {
		granted := c.round > 0 && n.grantRound == c.round
		fresh := !n.done && s.now.Sub(n.lastReport) <= simHeartbeat
		s.expect(granted == n.live() && (granted || !fresh), "%s granted %v, live %v, last report at %v",
			n.name, granted, n.live(), n.lastReport.Sub(simEpoch))
		if granted {
			sum += n.grant
		}
	}
	s.expect(sum <= simTotal*(1+1e-9), "grants sum to %v of %v", sum, simTotal)
}

// checkOffer runs on every adopt frame the coordinator sends: the offer
// is the shard's retained checkpoint, sent past the grace window or to
// a drained shard's directed target, never to the shard itself, and
// once per marking.
func (s *sim) checkOffer(adopter string, p, blob []byte) {
	shard, bin, _, _ := decodeAdoptHdr(p)
	n := s.coord.byName[shard]
	crashed := n.partitioned && s.now.Sub(n.partitionedAt) >= simGrace
	directed := n.migrateTo == adopter && n.ckptFinal
	s.expect(shard != adopter, "%s offered to itself", shard)
	s.expect(bin == n.ckptBin && bytes.Equal(blob, n.ckptBlob), "offer of %s at bin %d is not its retained checkpoint (bin %d)", shard, bin, n.ckptBin)
	s.expect(crashed || directed, "offer of %s to %s neither past grace (partitioned %v since %v) nor directed (to %q, final %v)",
		shard, adopter, n.partitioned, n.partitionedAt.Sub(simEpoch), n.migrateTo, n.ckptFinal)
	mark := fmt.Sprintf("%s@%d", shard, n.offeredAt.UnixNano())
	s.perMark[mark]++
	s.expect(s.perMark[mark] == 1, "offer of %s collected twice", shard)
	s.offers = append(s.offers, fmt.Sprintf("%s to %s at bin %d", shard, adopter, bin))
	s.logf("offer %s", s.offers[len(s.offers)-1])
}

// --- schedules ---

// randomRun plays a random schedule of faults over two to four workers.
func randomRun(tb testing.TB, seed uint64) *sim {
	s := newSim(tb, seed)
	s.latency = time.Duration(1+s.rng.Intn(30)) * ms
	s.traceLen = int64(40 + s.rng.Intn(40))
	if s.rng.Intn(2) == 0 {
		s.dir = tb.TempDir()
	}
	s.startCoordinator()
	for i := range 2 + s.rng.Intn(3) {
		s.spawn(fmt.Sprintf("w%d", i), 0)
	}
	end := time.Duration(s.traceLen+20) * simBin
	for at := time.Duration(0); at < end; at += time.Duration(s.rng.Intn(1000)) * ms {
		s.at(simEpoch.Add(at), s.fault)
	}
	s.run(end)
	return s
}

// fault strikes a random worker, or the coordinator.
func (s *sim) fault() {
	w := s.workers[s.rng.Intn(len(s.workers))]
	to := s.workers[s.rng.Intn(len(s.workers))].link.name
	switch k := s.rng.Intn(7); {
	case k == 0 && w.conn != nil:
		s.logf("fault: %s's connection dies", w.link.name)
		s.reset(w.conn)
	case (k == 1 || k == 2) && !w.partition:
		s.setPartition(w, true)
		s.after(time.Duration(100+s.rng.Intn(1500))*ms, func() { s.setPartition(w, false) })
		if k == 2 && s.coord != nil {
			s.logf("migrate %s to %s: %v", w.link.name, to, s.coord.Migrate(w.link.name, to))
		}
	case k == 3:
		w.loseCkpt = true
	case k == 4 && w.alive:
		s.logf("fault: %s crashes", w.link.name)
		if w.alive = false; w.conn != nil {
			s.reset(w.conn)
		}
		if s.rng.Intn(2) == 0 {
			s.after(time.Duration(s.rng.Intn(1000))*ms, func() { s.spawn(w.link.name, 0) })
		}
	case k == 5 && s.coord != nil && s.dir != "":
		s.logf("fault: the coordinator restarts")
		for _, c := range s.conns {
			s.reset(c)
		}
		s.coord, s.bound = nil, nil
		s.after(time.Duration(100+s.rng.Intn(700))*ms, s.startCoordinator)
	case k == 6 && s.coord != nil:
		s.logf("migrate %s to %s: %v", w.link.name, to, s.coord.Migrate(w.link.name, to))
	}
}

func TestControlPlaneSimulation(t *testing.T) {
	// alpha and beta split the budget; a partition holds beta's
	// reports, its lease expires, alpha gets the whole budget and beta,
	// hearing nothing, fails open. Healed, beta rejoins and the next
	// round splits the budget again.
	t.Run("lease-liveness-under-report-loss", func(t *testing.T) {
		s := newSim(t, 1)
		s.startCoordinator()
		alpha, beta := s.spawn("alpha", 0), s.spawn("beta", 0)
		alpha.demand, beta.demand = 600, 600
		s.run(1000 * ms)
		ga, aok := alpha.link.fresh(s.now)
		gb, bok := beta.link.fresh(s.now)
		s.expect(aok && bok && math.Abs(ga.Capacity+gb.Capacity-simTotal) <= 1e-6*simTotal,
			"phase 1: grants alpha %v (%v), beta %v (%v), want both summing to %v", ga.Capacity, aok, gb.Capacity, bok, simTotal)
		s.setPartition(beta, true)
		s.run(1000*ms + simLease + 2*simHeartbeat)
		ga, aok = alpha.link.fresh(s.now)
		_, bok = beta.link.fresh(s.now)
		s.expect(s.coord.byName["beta"].partitioned && aok && math.Abs(ga.Capacity-simTotal) <= 1e-6*simTotal,
			"phase 2: beta not partitioned, or the survivor holds %v (%v) of %v", ga.Capacity, aok, simTotal)
		s.expect(!bok && len(beta.held) > 0, "phase 2: beta holds a fresh grant (%v), or sent nothing into the partition", bok)
		s.setPartition(beta, false)
		s.run(1600 * ms)
		ga, aok = alpha.link.fresh(s.now)
		gb, bok = beta.link.fresh(s.now)
		s.expect(!s.coord.byName["beta"].partitioned && aok && bok && ga.Capacity < simTotal && gb.Capacity > 0,
			"phase 3: rejoin grants alpha %v, beta %v", ga.Capacity, gb.Capacity)
	})

	// s checkpoints bin 5 and falls silent; its lease expires at 0.8 s.
	// No offer inside the grace window; one to a (join order) past it;
	// a's connection dies with it in flight; no re-offer while it is
	// outstanding; rotation to b once it expires. A put-back from the
	// previous adopter does not reopen b's offer, b's own does. b's
	// instance of s dials in under the shard's name and settles it.
	t.Run("adopt-offer-rotation-and-race", func(t *testing.T) {
		s := newSim(t, 1)
		s.startCoordinator()
		sh, a, _ := s.spawn("s", 0), s.spawn("a", 0), s.spawn("b", 0)
		s.at(simEpoch.Add(650*ms), func() { s.setPartition(sh, true) })
		s.at(simEpoch.Add(1101*ms), func() { s.reset(a.conn) })
		n := func() *coordNode { return s.coord.byName["s"] }
		offered := func(to string, issued int64, sent ...string) {
			s.expect(n().offeredTo == to && s.coord.FailoverOffers() == issued && slices.Equal(s.offers, sent),
				"s offered to %q (want %q), %d issued (want %d), sent %q (want %q)", n().offeredTo, to, s.coord.FailoverOffers(), issued, s.offers, sent)
		}
		s.run(950 * ms)
		offered("", 0)
		s.run(1105 * ms)
		offered("a", 1, "s to a at bin 5")
		s.run(1250 * ms)
		offered("a", 1, "s to a at bin 5")
		s.at(simEpoch.Add(1400*ms+1), func() {
			_, msg := s.coord.takeOfferFor("b")
			s.expect(msg == nil, "offer delivered twice")
			s.coord.untakeOffer("s", "a")
			_, msg = s.coord.takeOfferFor("b")
			s.expect(msg == nil, "a stale put-back from the previous adopter re-opened b's offer")
			s.coord.untakeOffer("s", "b")
			_, msg = s.coord.takeOfferFor("b")
			s.expect(msg != nil, "offer put back after a failed push is not collectable again")
		})
		s.run(1401 * ms)
		offered("b", 2, "s to a at bin 5", "s to b at bin 5")
		s.run(4500 * ms)
		offered("", 2, "s to a at bin 5", "s to b at bin 5")
		s.expect(!n().partitioned, "adopted s is not live")
	})

	// Migrate validates its endpoints and raises a drain only s hears; a
	// periodic checkpoint racing the drain triggers nothing; the final
	// one clears the drain and is offered to the target at once — no
	// grace, no rotation — and the target resumes the shard.
	t.Run("migrate-directed-offer", func(t *testing.T) {
		s := newSim(t, 1)
		s.startCoordinator()
		for _, name := range []string{"s", "a", "b", "ghost"} {
			s.spawn(name, 0)
		}
		s.workers[3].mute = true // joined, never live
		s.run(1060 * ms)
		for _, bad := range [][2]string{{"nope", "a"}, {"s", "nope"}, {"s", "s"}, {"s", "ghost"}} {
			s.expect(s.coord.Migrate(bad[0], bad[1]) != nil, "migrate %s to %s accepted", bad[0], bad[1])
		}
		err := s.coord.Migrate("s", "b")
		s.expect(err == nil, "migrate s to b: %v", err)
		s.run(1550 * ms)
		n := s.coord.byName["s"]
		s.expect(n.offeredTo == "" && n.ckptBin == 10 && n.drainReq, "offer to %q before the final checkpoint (retained bin %d)", n.offeredTo, n.ckptBin)
		for _, w := range s.workers {
			s.expect(w.link.drainReq == (w.link.name == "s"), "drain relayed to %s: %v", w.link.name, w.link.drainReq)
		}
		s.run(1620 * ms)
		for _, m := range s.coord.nodes {
			s.expect(!m.drainReq, "drain of %s pending after the final checkpoint", m.name)
		}
		s.run(1660 * ms)
		s.expect(s.coord.FailoverOffers() == 1 && slices.Equal(s.offers, []string{"s to b at bin 15"}),
			"directed offers sent %q (%d issued), want s to b at bin 15, once", s.offers, s.coord.FailoverOffers())
		s.run(5000 * ms)
		s.expect(n.offeredTo == "" && !n.partitioned && s.coord.FailoverOffers() == 1, "completed migration re-offered to %q (%d issued)", n.offeredTo, s.coord.FailoverOffers())
	})

	// The two-owner flap: a partitioned s fails open while a adopts it;
	// healed, the original takes the name back and the two instances
	// take it from each other at every redial. What holds today is
	// check's one open connection per name.
	t.Run("two-owner-flap", func(t *testing.T) {
		s := newSim(t, 1)
		s.startCoordinator()
		sh, _ := s.spawn("s", 0), s.spawn("a", 0)
		s.at(simEpoch.Add(650*ms), func() { s.setPartition(sh, true) })
		s.at(simEpoch.Add(1500*ms), func() { s.setPartition(sh, false) })
		s.run(1500 * ms)
		adopted := s.workers[len(s.workers)-1]
		s.expect(adopted.link.name == "s" && adopted != sh, "s was not adopted before the heal")
		d0, d1 := sh.dials, adopted.dials
		s.run(4500 * ms)
		t.Logf("the two instances of s redialed %d and %d times in 3 s", sh.dials-d0, adopted.dials-d1)
	})

	// A seed replays exactly, checkpoint losses and restarts included.
	t.Run("replay", func(t *testing.T) {
		a, b := strings.Join(randomRun(t, 10).log, "\n"), strings.Join(randomRun(t, 10).log, "\n")
		if a != b || !strings.Contains(a, "checkpoint is lost") || !strings.Contains(a, "coordinator restarts") {
			t.Fatalf("seed 10 diverged between runs, or lost no checkpoint or restarted no coordinator:\n%s", a)
		}
	})
}

// FuzzControlPlane plays one random schedule per seed; plain go test
// sweeps seeds 1 to 200.
func FuzzControlPlane(f *testing.F) {
	for seed := uint64(1); seed <= 200; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { randomRun(t, seed) })
}
