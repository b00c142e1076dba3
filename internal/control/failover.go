package control

// failover.go — the coordinator's crash-recovery and migration side.
// The budget allocator (coord.go) decides who gets cycles; this file
// decides who gets orphaned shards. Three mechanisms share one state
// machine on coordNode:
//
//   - Retention: storeCheckpoint keeps the latest checkpoint blob per
//     shard (bounded — one blob per shard), optionally written through
//     to a state directory so a restarted coordinator still holds every
//     shard's last known state. A blob is opaque here: the shard's
//     name, resume bin and final flag travel beside it, on the wire
//     (transport.go's checkpoint frame) and in the spill file's header.
//   - Failover: planFailoverLocked turns "partitioned longer than the
//     grace window, with a checkpoint on file" into an adoption offer
//     to a live node. Offers expire and re-issue with the adopter
//     choice rotating through the live membership, so a refused or lost
//     offer does not wedge the shard. An offer is settled by a hello or
//     live report under the shard's name — the adopter dialing in, or
//     the original coming back (coord.go clears the offer on both
//     paths). If both happen the race is not benign. The only
//     ownership rule is the reconnect rule (conns in coord.go): the
//     last hello owns the name. A partitioned original fails open and
//     keeps running; once healed it redials and takes the name from its
//     adopter, whose own redial takes it back, and the two alternate
//     until one stops. Each connection holds the name alone, but the
//     shard's grant stream and reports flip between two engines. Nothing
//     fences the older instance yet.
//   - Migration: Migrate marks a shard drain-requested with a directed
//     target. The transport relays the drain; the shard checkpoints
//     with Final set at its next interval boundary and stops; the final
//     checkpoint makes the shard offerable immediately (no grace — the
//     source stopped deliberately) and the offer goes to the requested
//     target only.
//
// Everything leaves the coordinator through one by-name mailbox —
// grantFor, drainRequested, takeOfferFor. The loopback transport polls
// grants and drains directly; a wire driver calls pump, which polls all
// three, each heartbeat for every connected name and sends what it
// finds to that connection, putting an offer back (untakeOffer) when
// the send fails.
//
// None of this runs inside allocateLocked: failover planning is
// heartbeat-path work, and the steady-state allocation round stays at
// 0 allocs/op.

import (
	"bytes"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"time"
)

// AdoptOffer is an adoption offer as CoordClient.Adoptions delivers it
// to the hosting process: the shard to take over and its checkpoint
// blob, which the engine decodes (loadshed.DecodeShardCheckpoint) and
// which records the bin the shard resumes at. The blob is the
// receiver's own copy.
type AdoptOffer struct {
	Shard      string
	Checkpoint []byte
}

// storeCheckpoint retains a shard's latest checkpoint by name.
// Checkpoints for unknown names register a membership record, so state
// reloaded from disk is offerable even before the shard's worker
// reconnects.
func (c *Coordinator) storeCheckpoint(name string, bin int64, final bool, blob []byte) {
	c.mu.Lock()
	n := c.recordLocked(name)
	n.ckptBin = bin
	n.ckptFinal = final
	n.ckptBlob = append(n.ckptBlob[:0], blob...) // latest only: bounded
	if final {
		n.drainReq = false // the drain this checkpoint answers is over
	}
	c.ckptsStored++
	dir := c.stateDir
	c.mu.Unlock()
	if dir != "" {
		// Best-effort write-through, outside the lock; retention in memory
		// is what failover reads, the file only survives coordinator
		// restarts. A failed write is counted, so a full or vanished
		// directory shows on /metrics instead of looking durable.
		if err := spillCheckpoint(dir, name, bin, final, blob); err != nil {
			c.mu.Lock()
			c.spillErrs++
			c.mu.Unlock()
		}
	}
}

// CheckpointsStored returns how many checkpoints have been retained
// (lsd_cluster_checkpoints_total).
func (c *Coordinator) CheckpointsStored() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ckptsStored
}

// FailoverOffers returns how many adoption offers have been issued,
// re-offers included (lsd_cluster_failover_offers_total).
func (c *Coordinator) FailoverOffers() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.offersIssued
}

// SpillErrors returns how many retained checkpoints failed to spill to
// the state directory (lsd_cluster_spill_errors_total).
func (c *Coordinator) SpillErrors() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spillErrs
}

// spillCheckpoint writes blob to dir atomically (temp file + rename),
// behind a spill frame naming its shard, bin and final flag. The file
// name is the percent-escaped shard name ('/' and '%' included), which
// is injective: two shards never share a file, whatever their names.
func spillCheckpoint(dir, name string, bin int64, final bool, blob []byte) error {
	if len(blob) > maxCheckpointBytes {
		return fmt.Errorf("control: checkpoint blob %d bytes exceeds the %d spill cap", len(blob), maxCheckpointBytes)
	}
	path := filepath.Join(dir, url.PathEscape(name)+".ckpt")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(appendSpillFrame(nil, name, bin, final, len(blob)), blob...), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ErrCheckpointFile marks a SetStateDir error about single files of the
// state directory: each was skipped, every other file reloaded, and the
// coordinator can serve.
var ErrCheckpointFile = errors.New("control: state dir: checkpoint file skipped")

// SetStateDir enables checkpoint spill to dir (created if missing) and
// reloads any checkpoints already there — the coordinator-restart path.
// A reloaded shard with no live worker is marked partitioned as of now
// (the caller's clock), so it becomes adoptable once the grace window
// passes and a live adopter exists; if its worker is merely slow to
// reconnect, the hello clears the mark as usual. Files are matched to
// shards by the name in their header, not the file name, so files
// spilled under an older naming scheme still reload; when two files
// carry the same shard the later bin wins. Unreadable files, and files
// without the spill header — the bare checkpoints earlier builds
// spilled — are skipped, and the first is reported after all files are
// tried, wrapping ErrCheckpointFile. Any other error means the directory
// could not be created or listed.
func (c *Coordinator) SetStateDir(dir string, now time.Time) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("control: state dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("control: state dir: %w", err)
	}
	var firstErr error
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".ckpt" {
			continue
		}
		if err := c.reloadCheckpoint(filepath.Join(dir, e.Name()), now); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%w: reload %s: %v", ErrCheckpointFile, e.Name(), err)
		}
	}
	c.mu.Lock()
	c.stateDir = dir
	c.mu.Unlock()
	return firstErr
}

// reloadCheckpoint retains one spilled checkpoint file, unless a later
// one for the same shard is already held. It reads the spill header and
// keeps the rest of the file as the blob, unread. Nothing is spilled
// back: SetStateDir enables spilling only after the reload.
func (c *Coordinator) reloadCheckpoint(path string, now time.Time) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	p, _ := readCoordFrame(bytes.NewReader(data), nil) // nil when the file is shorter than its frame
	name, bin, final, blobLen, ok := decodeSpillHdr(p)
	if !ok || len(data)-2-len(p) != blobLen {
		return errors.New("no spill header, or a blob of another length than it announces (a bare checkpoint spilled by an earlier build?)")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.recordLocked(name)
	if n.ckptBlob != nil && n.ckptBin >= bin {
		return nil // a later checkpoint of the shard is already held
	}
	n.ckptBin, n.ckptFinal, n.ckptBlob = bin, final, data[2+len(p):]
	c.ckptsStored++
	if !n.ever {
		// No worker has spoken for this shard yet: treat it as
		// partitioned since the reload, pending a hello.
		n.ever = true
		n.partitioned = true
		n.partitionedAt = now
	}
	return nil
}

// planFailoverLocked marks adoption offers for orphaned shards:
// partitioned past the grace window with a checkpoint on file, or
// drained with a directed migration target. A marked offer suppresses
// re-offers for offerTimeout; after that the shard re-offers with the
// adopter rotating through the live membership. It delivers nothing
// itself — pump collects the offer through takeOfferFor, on the
// adopter's behalf. Caller holds c.mu.
func (c *Coordinator) planFailoverLocked(now time.Time, grace, offerTimeout time.Duration) {
	for _, n := range c.nodes {
		if n.done || n.ckptBlob == nil {
			continue
		}
		crashed := n.partitioned && now.Sub(n.partitionedAt) >= grace
		migrating := n.migrateTo != "" && n.ckptFinal
		if !crashed && !migrating {
			continue
		}
		if n.offeredTo != "" && now.Sub(n.offeredAt) < offerTimeout {
			continue // an offer is in flight; give it time
		}
		adopter := c.pickAdopterLocked(n)
		if adopter == nil {
			continue // no live candidate this round; retry next heartbeat
		}
		n.offeredTo = adopter.name
		n.offeredAt = now
		n.offerTaken = false
		n.offerAttempts++
		c.offersIssued++
	}
}

// pickAdopterLocked chooses who to offer n's shard to: the directed
// migration target if one is set (and live), else the live nodes in
// join order, rotated by how many offers this shard has already had —
// a lost or ignored offer moves on to the next candidate.
func (c *Coordinator) pickAdopterLocked(n *coordNode) *coordNode {
	if n.migrateTo != "" {
		if m := c.byName[n.migrateTo]; m != nil && m != n && m.live() {
			return m
		}
		return nil // directed target gone; hold rather than misdeliver
	}
	var candidates []*coordNode
	for _, m := range c.nodes {
		if m != n && m.live() {
			candidates = append(candidates, m)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[n.offerAttempts%len(candidates)]
}

// takeOfferFor returns (at most once per marked offer) the adopt
// message of an offer addressed to adopter, header and blob, and the
// shard it offers. The blob is copied under the lock: the record keeps
// its own bytes, which storeCheckpoint rewrites in place.
func (c *Coordinator) takeOfferFor(adopter string) (shard string, msg []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if n.offeredTo == adopter && !n.offerTaken && n.ckptBlob != nil {
			n.offerTaken = true
			return n.name, append(appendAdoptFrame(nil, n.name, len(n.ckptBlob)), n.ckptBlob...)
		}
	}
	return "", nil
}

// untakeOffer puts a collected offer back (the transport failed to
// deliver it), so the adopter's next poll collects it again — unless the
// shard has been settled or re-offered elsewhere meanwhile.
func (c *Coordinator) untakeOffer(shard, adopter string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.byName[shard]; n != nil && n.offeredTo == adopter {
		n.offerTaken = false
	}
}

// pump is the mailbox step: it sends name's fresh grant, a pending
// drain and an adoption offer through send. The drain frame re-sends
// every heartbeat until the final checkpoint lands (idempotent on the
// worker side), so a lost frame only delays the drain one heartbeat. An
// offer goes header and blob in one send, so grant pushes cannot
// interleave mid-blob; one that cannot be sent is put back for the next
// heartbeat rather than waiting out the offer timeout.
func (c *Coordinator) pump(name string, send func(build func([]byte) []byte) error) {
	if g, ok := c.grantFor(name); ok {
		send(func(b []byte) []byte { return appendGrantFrame(b, g) })
	}
	if c.drainRequested(name) {
		send(appendDrainFrame)
	}
	if shard, msg := c.takeOfferFor(name); msg != nil {
		if send(func(b []byte) []byte { return append(b, msg...) }) != nil {
			c.untakeOffer(shard, name)
		}
	}
}

// Migrate requests a planned migration: shard from drains at its next
// interval boundary and its final checkpoint is offered to shard to's
// worker. Both must be known; the target must be live; a shard cannot
// migrate onto itself.
func (c *Coordinator) Migrate(from, to string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.byName[from]
	if f == nil {
		return fmt.Errorf("control: migrate: unknown shard %q", from)
	}
	if f.done {
		return fmt.Errorf("control: migrate: shard %q already finished", from)
	}
	t := c.byName[to]
	if t == nil {
		return fmt.Errorf("control: migrate: unknown target %q", to)
	}
	if from == to {
		return fmt.Errorf("control: migrate: shard %q cannot migrate onto itself", from)
	}
	if !t.live() {
		return fmt.Errorf("control: migrate: target %q is not live", to)
	}
	f.drainReq = true
	f.migrateTo = to
	return nil
}

// drainRequested reports whether a drain is pending for the named
// shard; it stays up until the shard's final checkpoint lands.
func (c *Coordinator) drainRequested(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.byName[name]
	return n != nil && n.drainReq
}
