// Package srs implements the Stop Restart Software of §4.1: a user-level
// checkpointing library that lets a running application checkpoint
// registered data, be stopped at an execution point, and be restarted later
// on a different processor configuration — transparently redistributing
// block-cyclic data from N to M processes. Checkpoints are held in IBP
// depots on the writers' local disks.
//
// Every checkpoint blob carries a writer-side checksum and an epoch tag
// (one epoch per committed checkpoint round), and the RSS retains a short
// lineage of past epochs. A restore therefore never trusts the latest blob
// blindly: it plans against the newest epoch whose every blob still
// verifies — falling back from a primary depot to its buddy replica, and
// from a corrupt generation to an older one — before any data moves.
//
// An external component (the rescheduler) interacts with the Runtime
// Support System (RSS) daemon, which exists for the duration of the
// application execution and spans migrations.
package srs

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"grads/internal/faultinject"
	"grads/internal/ibp"
	"grads/internal/mpi"
	"grads/internal/resilience"
	"grads/internal/simcore"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// Ckpt records one stored checkpoint blob. Replica, when non-nil, names a
// second depot holding a copy: the restore path falls back to it when the
// primary depot's node is down or its blob fails verification, which is
// what makes recovery from the crash (or rot) of a checkpoint-holding node
// possible at all.
type Ckpt struct {
	Key     string
	Epoch   int    // checkpoint round the blob belongs to
	Sum     uint64 // writer checksum, verified before every read
	Depot   *topology.Node
	Replica *topology.Node
	Bytes   float64
}

// epochRec is one sealed checkpoint round: the progress marker it restores
// to and the exact key set a consistent restore of it must read.
type epochRec struct {
	marker int
	keys   []string // sorted
}

// keepGenerations is how many committed checkpoint generations the
// RSS retains per key: the current one plus one fallback.
const keepGenerations = 2

// RSS is the Runtime Support System daemon state. It is created where the
// user invokes the application manager, before the application starts, and
// survives across migrations.
type RSS struct {
	sim     *simcore.Sim
	storage *ibp.System
	app     string

	stopRequested bool
	resumeMarker  int
	ckpts         map[string][]Ckpt // key -> lineage, newest epoch first
	migrations    int
	stopSignal    *simcore.Signal
	stoppedRanks  int
	expectedRanks int

	writeEpoch   int              // epoch being written (sealed by Commit)
	epochs       map[int]epochRec // sealed rounds within the keep window
	restoreEpoch int              // epoch chosen by PlanRestore; 0 = newest-per-key

	replicate bool // buddy-depot copy of every checkpoint; tests turn it off to show what it buys
	retrier   *resilience.Retrier

	corruptDetected int // blobs that failed verification and were skipped
	corruptServed   int // reads that returned bytes failing post-read verify (must stay 0)
	lineageFalls    int // restores planned against an older epoch
}

// NewRSS creates the RSS daemon for one application execution. Checkpoint
// replication to a buddy depot is on.
func NewRSS(sim *simcore.Sim, storage *ibp.System, appName string) *RSS {
	return &RSS{
		sim:        sim,
		storage:    storage,
		app:        appName,
		ckpts:      make(map[string][]Ckpt),
		stopSignal: simcore.NewSignal(sim),
		replicate:  true,
		writeEpoch: 1,
		epochs:     make(map[int]epochRec),
	}
}

// SetRetrier installs a retry policy around the RSS's IBP operations, so
// transient storage-service outages stall checkpoints instead of failing
// the application.
func (r *RSS) SetRetrier(rt *resilience.Retrier) { r.retrier = rt }

// CorruptDetected returns how many checkpoint blobs failed checksum
// verification and were skipped in favor of a replica or older generation.
func (r *RSS) CorruptDetected() int { return r.corruptDetected }

// CorruptServed returns how many reads handed back data that failed the
// post-read verification. The restore path re-verifies after every read,
// so this staying zero is the "no restore from a corrupt generation"
// invariant the chaos soak asserts.
func (r *RSS) CorruptServed() int { return r.corruptServed }

// LineageFallbacks returns how many restores were planned against an older
// generation because the newest one had an unverifiable blob.
func (r *RSS) LineageFallbacks() int { return r.lineageFalls }

// RequestStop asks every attached process to checkpoint and terminate at
// its next SRS check point (called by the rescheduler).
func (r *RSS) RequestStop(expectedRanks int) {
	r.stopRequested = true
	r.expectedRanks = expectedRanks
	r.stoppedRanks = 0
	r.stopSignal.Broadcast() // wake WaitAllStopped callers parked pre-request
}

// ClearStop resets the stop flag for the restarted execution and counts a
// migration.
func (r *RSS) ClearStop() {
	r.stopRequested = false
	r.migrations++
}

// StopRequested reports whether a stop is pending.
func (r *RSS) StopRequested() bool { return r.stopRequested }

// Migrations returns how many migrations this RSS has spanned.
func (r *RSS) Migrations() int { return r.migrations }

// ResumeMarker returns the recorded progress marker.
func (r *RSS) ResumeMarker() int { return r.resumeMarker }

// WaitAllStopped blocks until a stop has been requested and every expected
// rank has checkpointed and acknowledged it.
func (r *RSS) WaitAllStopped(p *simcore.Proc) error {
	for !r.stopRequested || r.stoppedRanks < r.expectedRanks {
		if err := r.stopSignal.Wait(p); err != nil {
			return err
		}
	}
	return nil
}

// ackStopped is called by a Lib after its final checkpoint.
func (r *RSS) ackStopped() {
	r.stoppedRanks++
	if r.stoppedRanks >= r.expectedRanks {
		r.stopSignal.Broadcast()
	}
}

// blobKey is the storage key of one (key, epoch) blob, namespaced by the
// owning application: depots are shared infrastructure, and two jobs using
// the same logical key (every task farm calls rank 0's state "farm.r0ofN")
// must never clobber each other's blobs. Epochs coexist in the depots,
// which is what makes lineage fallback possible.
func (r *RSS) blobKey(key string, epoch int) string {
	return fmt.Sprintf("%s/%s#e%d", r.app, key, epoch)
}

// checksum is the writer-side integrity sum of a checkpoint blob,
// deterministic in the blob's identity and size.
func (r *RSS) checksum(key string, epoch int, bytes float64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(r.app))
	h.Write([]byte{0})
	h.Write([]byte(key))
	var buf [16]byte
	u := uint64(epoch)
	b := math.Float64bits(bytes)
	for i := 0; i < 8; i++ {
		buf[i] = byte(u >> (8 * i))
		buf[8+i] = byte(b >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// register records a stored checkpoint at the head of its key's lineage.
// A re-write within the same epoch replaces the head; older generations
// beyond the keep window are dropped and their blobs deleted.
func (r *RSS) register(c Ckpt) {
	lineage := r.ckpts[c.Key]
	if len(lineage) > 0 && lineage[0].Epoch == c.Epoch {
		lineage[0] = c
	} else {
		lineage = append([]Ckpt{c}, lineage...)
	}
	for len(lineage) > keepGenerations {
		r.deleteBlob(lineage[len(lineage)-1])
		lineage = lineage[:len(lineage)-1]
	}
	r.ckpts[c.Key] = lineage
}

// lookup finds the lineage entry of (key, epoch).
func (r *RSS) lookup(key string, epoch int) (Ckpt, bool) {
	for _, c := range r.ckpts[key] {
		if c.Epoch == epoch {
			return c, true
		}
	}
	return Ckpt{}, false
}

// deleteBlob removes a checkpoint's primary and replica blobs from storage.
func (r *RSS) deleteBlob(c Ckpt) {
	bk := r.blobKey(c.Key, c.Epoch)
	r.storage.Delete(c.Depot.Name(), bk)
	if c.Replica != nil {
		r.storage.Delete(c.Replica.Name(), bk)
	}
}

// Commit seals the checkpoint round the ranks just wrote: it records the
// progress marker and the exact key set a consistent restore must read,
// advances the write epoch, and retires generations that fell out of the
// keep window. The committing rank calls it after a complete checkpoint
// set is written, so a restore never mixes blobs from different epochs or
// process counts.
func (r *RSS) Commit(marker int, keys []string) {
	e := r.writeEpoch
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	r.epochs[e] = epochRec{marker: marker, keys: sorted}
	r.resumeMarker = marker
	r.restoreEpoch = 0 // the next restore re-plans against the new round
	r.writeEpoch++

	floor := e - keepGenerations + 1
	for ep := range r.epochs {
		if ep < floor {
			delete(r.epochs, ep)
		}
	}
	for key, lineage := range r.ckpts {
		kept := lineage[:0]
		for _, c := range lineage {
			if c.Epoch >= floor {
				kept = append(kept, c)
			} else {
				r.deleteBlob(c)
			}
		}
		if len(kept) == 0 {
			delete(r.ckpts, key)
		} else {
			r.ckpts[key] = kept
		}
	}
}

// replicateAsync spawns a data-mover process copying the checkpoint just
// written on node to a buddy depot. The replica is attached to the
// registered checkpoint only if the entry is still the same epoch when the
// copy completes (a newer write or a prune invalidates the copy).
func (r *RSS) replicateAsync(ck Ckpt) {
	r.sim.Spawn("srs-replica:"+ck.Key, func(cp *simcore.Proc) {
		buddy := r.storage.ReplicaFor(ck.Depot)
		if buddy == nil {
			return
		}
		bk := r.blobKey(ck.Key, ck.Epoch)
		if err := r.storage.StoreSum(cp, ck.Depot, buddy, bk, ck.Bytes, ck.Sum); err != nil {
			return
		}
		c, ok := r.lookup(ck.Key, ck.Epoch)
		if !ok || c.Depot != ck.Depot || c.Bytes != ck.Bytes {
			r.storage.Delete(buddy.Name(), bk) // stale copy, drop it
			return
		}
		c.Replica = buddy
		for i, cur := range r.ckpts[ck.Key] {
			if cur.Epoch == ck.Epoch {
				r.ckpts[ck.Key][i] = c
				break
			}
		}
	})
}

// Checkpoints returns the newest registered checkpoint of every key,
// sorted by key.
func (r *RSS) Checkpoints() []Ckpt {
	out := make([]Ckpt, 0, len(r.ckpts))
	for _, lineage := range r.ckpts {
		if len(lineage) > 0 {
			out = append(out, lineage[0])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// DropCheckpoints deletes all registered checkpoints, every generation
// (after a successful restart has consumed them).
func (r *RSS) DropCheckpoints() {
	for k, lineage := range r.ckpts {
		for _, c := range lineage {
			r.deleteBlob(c)
		}
		delete(r.ckpts, k)
	}
	r.epochs = make(map[int]epochRec)
	r.restoreEpoch = 0
}

// verifiedCandidates returns the depots of c whose blob verifies against
// the writer checksum, primary first. A blob that is present but fails
// verification is counted (and published) as detected corruption.
func (r *RSS) verifiedCandidates(c Ckpt) []*topology.Node {
	bk := r.blobKey(c.Key, c.Epoch)
	var out []*topology.Node
	for _, cand := range []*topology.Node{c.Depot, c.Replica} {
		if cand == nil {
			continue
		}
		if r.storage.Verify(cand.Name(), bk, c.Sum) {
			out = append(out, cand)
			continue
		}
		if _, present := r.storage.Size(cand.Name(), bk); present {
			r.corruptDetected++
			if tel := r.sim.Telemetry(); tel != nil {
				tel.Counter("srs", "ckpt_corrupt_detected").Inc()
				tel.Emit(telemetry.Event{
					Type: telemetry.EvCkptCorrupt, Comp: "srs:" + r.app, Name: c.Key,
					Args: []telemetry.Arg{
						telemetry.S("depot", cand.Name()),
						telemetry.I("epoch", c.Epoch),
					},
				})
			}
		}
	}
	return out
}

// PlanRestore chooses the generation the next restore reads and returns
// its progress marker plus whether any restorable checkpoint state exists.
// It walks the sealed epochs newest first and picks the first whose every
// blob still verifies on some depot (primary or replica); corruption in
// the newest generation therefore falls back to an older one, with the
// resume marker moving back in lockstep so progress and data stay
// consistent. With no sealed epoch (single-round callers that never
// Commit) it degrades to the newest-blob-per-key behavior.
func (r *RSS) PlanRestore() (int, bool) {
	r.restoreEpoch = 0
	if len(r.epochs) == 0 {
		// Legacy path (nothing committed yet): resume from the registered
		// checkpoints — but only if every one of them still has an intact
		// verified copy. Otherwise restart from scratch: retrying a read
		// of rotted bytes forever is the one unrecoverable loop.
		if len(r.ckpts) == 0 {
			return r.resumeMarker, false
		}
		for _, c := range r.Checkpoints() {
			if len(r.verifiedCandidates(c)) == 0 {
				return 0, false
			}
		}
		return r.resumeMarker, true
	}
	newest := 0
	for e := range r.epochs {
		if e > newest {
			newest = e
		}
	}
	for e := newest; e > 0; e-- {
		rec, ok := r.epochs[e]
		if !ok {
			break // fell out of the keep window: nothing older remains
		}
		viable := true
		for _, key := range rec.keys {
			c, found := r.lookup(key, e)
			if !found || len(r.verifiedCandidates(c)) == 0 {
				viable = false
				break
			}
		}
		if !viable {
			continue
		}
		if e != newest {
			r.lineageFalls++
			if tel := r.sim.Telemetry(); tel != nil {
				tel.Counter("srs", "lineage_fallbacks").Inc()
			}
		}
		r.restoreEpoch = e
		r.resumeMarker = rec.marker
		return rec.marker, true
	}
	return 0, false // no generation verifies: recompute from scratch
}

// restoreSet is the checkpoint set one restore reads: the planned epoch's
// committed keys, or the newest generation per key when no epoch is
// sealed.
func (r *RSS) restoreSet() []Ckpt {
	if r.restoreEpoch == 0 {
		return r.Checkpoints()
	}
	rec := r.epochs[r.restoreEpoch]
	out := make([]Ckpt, 0, len(rec.keys))
	for _, key := range rec.keys {
		if c, ok := r.lookup(key, r.restoreEpoch); ok {
			out = append(out, c)
		}
	}
	return out
}

// Lib is the per-process SRS handle the application calls.
type Lib struct {
	rss *RSS
	ctx *mpi.Ctx

	writeTime float64
	readTime  float64
}

// Attach binds the calling application process to the RSS daemon,
// performing SRS initialization.
func Attach(rss *RSS, ctx *mpi.Ctx) *Lib { return &Lib{rss: rss, ctx: ctx} }

// NeedStop reports whether the process should checkpoint and terminate
// (the srs_check call of the paper).
func (l *Lib) NeedStop() bool { return l.rss.StopRequested() }

// CheckpointWriteTime returns the virtual time this process has spent
// writing checkpoints.
func (l *Lib) CheckpointWriteTime() float64 { return l.writeTime }

// CheckpointReadTime returns the virtual time spent reading checkpoints.
func (l *Lib) CheckpointReadTime() float64 { return l.readTime }

// StoreCheckpoint writes bytes of user data under key to the IBP depot on
// the process's own node ("checkpoints are written to IBP storage on local
// disks"), copies it to a buddy depot when replication is on, and registers
// it with the RSS. The blob is checksummed and tagged with the current
// write epoch. A failed replica write degrades to an unreplicated
// checkpoint rather than failing the application.
func (l *Lib) StoreCheckpoint(key string, bytes float64) error {
	node := l.ctx.Node()
	p := l.ctx.Proc()
	start := l.ctx.Now()
	epoch := l.rss.writeEpoch
	sum := l.rss.checksum(key, epoch, bytes)
	err := l.rss.retrier.Do(p, "ibp.store", func() error {
		return l.rss.storage.StoreSum(p, node, node, l.rss.blobKey(key, epoch), bytes, sum)
	})
	l.writeTime += l.ctx.Now() - start
	if err != nil {
		return err
	}
	ck := Ckpt{Key: key, Epoch: epoch, Sum: sum, Depot: node, Bytes: bytes}
	l.rss.register(ck)
	if l.rss.replicate {
		// Copy to a buddy depot asynchronously (an IBP data mover), off
		// the application's critical path: checkpoint writes stay
		// local-disk cheap (Figure 3), while the replica is what restores
		// fall back to when the writer's node later crashes. Until the
		// copy lands there is a window with no replica — exactly the
		// vulnerability window a real lazy replication scheme has.
		l.rss.replicateAsync(ck)
	}
	if tel := l.rss.sim.Telemetry(); tel != nil {
		tel.Counter("srs", "ckpt_writes").Inc()
		tel.Histogram("srs", "ckpt_write_seconds").Observe(l.ctx.Now() - start)
		tel.Emit(telemetry.Event{
			Type: telemetry.EvCkptWrite, Comp: "srs:" + l.rss.app, Name: key,
			Dur:  l.ctx.Now() - start,
			Args: []telemetry.Arg{telemetry.F("bytes", bytes), telemetry.S("depot", node.Name())},
		})
	}
	return nil
}

// AckStopped tells the RSS this process has finished its final checkpoint
// and is terminating.
func (l *Lib) AckStopped() { l.rss.ackStopped() }

// RestoreShare reads this process's share of the previous execution's
// checkpoint data onto its current node: 1/nProcs of every blob in the
// planned restore set, pulled from a depot whose copy verifies. This
// models the block-cyclic N-to-M redistribution (every new process touches
// every old depot, and data written at the old site crosses the network to
// the new one). It returns the bytes read.
func (l *Lib) RestoreShare(myRank, nProcs int) (float64, error) {
	if nProcs <= 0 {
		return 0, fmt.Errorf("srs: bad process count %d", nProcs)
	}
	start := l.ctx.Now()
	defer func() { l.readTime += l.ctx.Now() - start }()
	p := l.ctx.Proc()
	total := 0.0
	for _, c := range l.rss.restoreSet() {
		c := c
		bk := l.rss.blobKey(c.Key, c.Epoch)
		share := c.Bytes / float64(nProcs)
		var n float64
		err := l.rss.retrier.Do(p, "ibp.retrieve", func() error {
			cands := l.rss.verifiedCandidates(c)
			if len(cands) == 0 {
				// Both copies rotted since planning: not retryable, the
				// caller must re-plan against an older generation.
				return fmt.Errorf("%w: no intact copy of %s", ibp.ErrCorrupt, bk)
			}
			var rerr error
			for i, cand := range cands {
				// Prefer the first live verified depot; the last candidate
				// is tried even when down so the retry layer sees the
				// transient error and backs off.
				if cand.Down() && i < len(cands)-1 {
					continue
				}
				n, rerr = l.rss.storage.RetrievePartial(p, cand, l.ctx.Node(), bk, share)
				if rerr == nil {
					// Belt and braces: re-verify after the read. Corruption
					// that landed while the bytes were in flight must not
					// be consumed silently.
					if !l.rss.storage.Verify(cand.Name(), bk, c.Sum) {
						l.rss.corruptServed++
						return fmt.Errorf("%w: %s rotted mid-read on %s", ibp.ErrCorrupt, bk, cand.Name())
					}
					return nil
				}
				if errors.Is(rerr, ibp.ErrCorrupt) {
					continue // try the other verified copy
				}
				if !faultinject.Retryable(rerr) {
					return rerr
				}
			}
			return rerr
		})
		if err != nil {
			return total, err
		}
		total += n
	}
	if tel := l.rss.sim.Telemetry(); tel != nil {
		tel.Counter("srs", "ckpt_reads").Inc()
		tel.Histogram("srs", "ckpt_read_seconds").Observe(l.ctx.Now() - start)
		tel.Emit(telemetry.Event{
			Type: telemetry.EvCkptRead, Comp: "srs:" + l.rss.app,
			Dur:  l.ctx.Now() - start,
			Args: []telemetry.Arg{telemetry.F("bytes", total), telemetry.I("rank", myRank), telemetry.I("nprocs", nProcs)},
		})
	}
	return total, nil
}
