package vcsim

// This file is the Sim state codec: Snapshot serializes a live
// simulator — worm records, credit counters, wait/active/pending key
// lists, deep per-flit state, the telemetry registry — to a versioned
// little-endian binary stream, and RestoreSim rebuilds a Sim from it
// that continues the run byte-identically to the uninterrupted
// original (pinned by the round-trip differential tests and the fuzz
// harness). A checkpointed run can therefore survive a process kill:
// the daemon snapshots between steps, and a restart restores and
// resumes as if nothing happened.
//
// A snapshot is only taken between steps, which is the only state a
// caller can observe anyway — every public entry point returns with
// the two-phase step fully folded. That boundary is what keeps the
// format small: everything that is provably empty between steps is
// restored as zero instead of serialized — the deferred release
// accumulators (relLane/relFlit fold into the credit counters at
// applyStepEnd), the dirty lists and flags (cleared there too), the
// epoch-stamped crossings meters (a stale stamp reads as zero), and
// all per-step scratch buffers. The worm-buffer freelist is also
// skipped: a restored Sim simply bump-allocates its next buffers from
// the arena, which is observably identical because recycled buffers are
// always fully overwritten before use.
//
// What IS serialized, verbatim: every worm record (completed ones
// included — IDs index worms for the life of the run), the live
// pending window, the active list in its engine-specific order, the
// per-edge wait heaps as raw arrays (heap layout affects future pop
// order, so byte-identity requires the arrays, not a re-push), the
// credit counters, the edge-role classification, the ArbRandom
// shuffler state, the run counters, and the telemetry registry.
//
// Restore-side configuration: the caller supplies the network and a
// Config, because hooks (OnComplete, Metrics, Trace) cannot
// be serialized. Every schedule-relevant Config field is verified
// against the snapshot and mismatch is an error (ErrSnapshotConfig);
// CheckInvariants is free to differ — it is pure mechanism with
// byte-identical results. Trace ring contents do not survive a restore
// (the ring is diagnostics, not schedule state).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"wormhole/internal/fault"
	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/snap"
)

// SnapshotVersion is the current snapshot format version. RestoreSim
// rejects snapshots written by a different version: the format encodes
// engine internals whose meaning is pinned to the engine revision, so
// cross-version restores would be silently wrong, not merely lossy.
// v2 added the fault plane: the schedule and retry policy in the config
// section, per-worm retry counts, and the outage state block.
const SnapshotVersion = 2

// snapMagic opens every snapshot; snapTrailer closes it, so a
// truncated stream is detected even when every interior field parses.
const (
	snapMagic   = "WORMSNAP"
	snapTrailer = uint64(0x574F524D454E4453) // "WORMENDS"
)

// A worm record's fixed part on the wire — key, fifteen i32s, the status
// byte and two bools — by byte offset. Snapshot fills it in one array and
// writes it whole; RestoreSim decodes it from one snap.Reader window.
const (
	recKey         = 0
	recD           = 8
	recL           = 12
	recFrontier    = 16
	recRelease     = 20
	recInject      = 24
	recDeliver     = 28
	recDrop        = 32
	recStalls      = 36
	recStatus      = 40
	recParkedAt    = 41
	recWaitEdge    = 45
	recStreak      = 49
	recWoken       = 53
	recFHead       = 54
	recLastInj     = 58
	recStretched   = 62
	recBlockedOn   = 63
	recRetries     = 67
	wormFixedBytes = 71
)

// putRecord fills rec with w's fixed part.
func putRecord(rec *[wormFixedBytes]byte, w *worm) {
	le := binary.LittleEndian
	deliver, drop := w.endTimes()
	le.PutUint64(rec[recKey:], w.key)
	le.PutUint32(rec[recD:], uint32(w.d))
	le.PutUint32(rec[recL:], uint32(w.l))
	le.PutUint32(rec[recFrontier:], uint32(w.frontier))
	le.PutUint32(rec[recRelease:], uint32(w.release))
	le.PutUint32(rec[recInject:], uint32(w.injectTime))
	le.PutUint32(rec[recDeliver:], uint32(deliver))
	le.PutUint32(rec[recDrop:], uint32(drop))
	le.PutUint32(rec[recStalls:], uint32(w.stalls))
	rec[recStatus] = uint8(w.status)
	le.PutUint32(rec[recParkedAt:], uint32(w.parkedAt))
	le.PutUint32(rec[recWaitEdge:], uint32(w.waitEdge))
	le.PutUint32(rec[recStreak:], uint32(w.streak))
	rec[recWoken] = uint8(bit(w.woken))
	le.PutUint32(rec[recFHead:], uint32(w.fHead))
	le.PutUint32(rec[recLastInj:], uint32(w.lastInj))
	rec[recStretched] = uint8(bit(w.stretched))
	le.PutUint32(rec[recBlockedOn:], uint32(w.blockedOn))
	le.PutUint32(rec[recRetries:], uint32(w.retries))
}

// buffers returns what the wire carries for w's path and prog: the arena
// buffer's two parts while the worm is in flight, nothing once it finished
// (and no prog on the rigid engine).
func (si *Sim) buffers(w *worm) (path, prog []int32) {
	if w.off < 0 {
		return nil, nil
	}
	if si.deepMode {
		prog = si.prog(w)
	}
	return si.path(w), prog
}

var (
	// ErrSnapshotFormat is wrapped when the stream is not a snapshot
	// (bad magic) or was written by an unsupported format version.
	ErrSnapshotFormat = errors.New("vcsim: unrecognized snapshot format")
	// ErrSnapshotCorrupt is wrapped when the stream parses as a
	// snapshot but its contents are inconsistent or truncated.
	ErrSnapshotCorrupt = errors.New("vcsim: corrupt snapshot")
	// ErrSnapshotConfig is wrapped when the snapshot is valid but was
	// taken under a different network or schedule-relevant Config than
	// the caller supplied to RestoreSim.
	ErrSnapshotConfig = errors.New("vcsim: snapshot does not match the supplied network or config")
)

// cfgField is one slot of the snapshot's config section as this Sim
// holds it: its wire width in bytes and its value. Snapshot writes the
// list; RestoreSim walks the same list on the Sim emptySim built from
// the caller's Config, so writer and verifier cannot drift, and the
// 0-means-default aliases (LaneDepth, ParkStreak, the retry policy)
// compare equal because emptySim normalized both sides. A named slot is
// verified — the stream must carry this Sim's value, else
// ErrSnapshotConfig names it; a slot with adopt set is run state that
// rides in the section and is taken from the stream.
type cfgField struct {
	name  string
	width int
	val   uint64 // non-negative by ValidateConfig, so zero-extension is exact
	adopt func(uint64)
}

func (si *Sim) configFields() []cfgField {
	bit := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	return []cfgField{
		{"network edges", 4, uint64(len(si.edges)), nil},
		{"VirtualChannels", 4, uint64(si.b), nil},
		{"LaneDepth", 4, uint64(si.depth), nil},
		{"SharedPool", 1, bit(si.shared), nil},
		{"RestrictedBandwidth", 1, bit(si.cfg.RestrictedBandwidth), nil},
		{"DropOnDelay", 1, bit(si.cfg.DropOnDelay), nil},
		{"NaiveScan", 1, bit(si.naive), nil},
		{"", 1, bit(si.recycle), func(v uint64) { si.recycle = v != 0 }},
		{"Arbitration", 1, uint64(si.cfg.Arbitration), nil},
		{"ParkStreak", 4, uint64(si.parkStreak), nil},
		{"Seed", 8, si.cfg.Seed, nil},
		{"MaxSteps", 8, uint64(si.cfg.MaxSteps), nil},
		{"", 8, uint64(si.maxSteps), func(v uint64) { si.maxSteps = int(v) }},
		{"Retry.MaxAttempts", 4, uint64(si.retryMax), nil},
		{"Retry.Backoff", 4, uint64(si.retryBase), nil},
		{"Retry.BackoffCap", 4, uint64(si.retryCap), nil},
	}
}

// Snapshot serializes the simulator's complete schedule state to w.
// Callable at any public-API point in the Sim's life (between steps);
// the Sim is not mutated. Restore with RestoreSim.
func (si *Sim) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w)
	sw.Raw([]byte(snapMagic))
	sw.U32(SnapshotVersion)

	// Config section: the schedule-relevant configuration, then the
	// fault schedule itself. RestoreSim verifies both against its Config.
	for _, f := range si.configFields() {
		sw.Uint(f.width, f.val)
	}
	sw.U32(uint32(len(si.faults)))
	for _, ev := range si.faults {
		sw.I64(int64(ev.Step))
		sw.U32(uint32(ev.Edge))
		sw.U8(uint8(ev.Kind))
	}

	// Worm records, in ID order. Completed worms ride along with empty
	// path/prog — their stats must survive for Result and the dense ID
	// index — transcoded from their sealed chunks where they have one.
	sw.U64(uint64(si.now))
	sw.U32(uint32(si.numWorms))
	var rec [wormFixedBytes + 8]byte // Raw's argument escapes: one buffer per Snapshot
	for ci, c := range si.wormChunks {
		if c == nil {
			si.writeSealed(sw, ci, &rec)
			continue
		}
		for i := range si.chunkLen(ci) {
			w := &c[i]
			putRecord((*[wormFixedBytes]byte)(rec[:]), w)
			sw.Raw(rec[:wormFixedBytes])
			path, prog := si.buffers(w)
			sw.I32s(path)
			sw.I32s(prog)
		}
	}

	// Key lists. The pending window is normalized to start at 0; the
	// active list keeps its engine-specific order verbatim.
	sw.U64s(si.pending[si.pendHead:])
	sw.U64s(si.active)
	sw.Bool(si.byID != nil)

	// Per-edge credit state. The wire form is a plain counter array; the
	// rest of edgeRec is empty between steps (relLane, dirtyFlag) or
	// rebuilt from the wait heaps on restore (waiters).
	sw.U32(uint32(len(si.edges)))
	for e := range si.edges {
		sw.I32(si.edges[e].laneFree)
	}
	if si.deepMode {
		sw.I32s(si.flitFree)
	}

	// Wait heaps, sparsely: most edges have no waiters. The raw array
	// layout is serialized — heap shape determines future pop order.
	writeHeaps := func(qs [][]uint64) {
		nonEmpty := 0
		for _, q := range qs {
			if len(q) > 0 {
				nonEmpty++
			}
		}
		sw.U32(uint32(nonEmpty))
		for e, q := range qs {
			if len(q) > 0 {
				sw.U32(uint32(e))
				sw.U64s(q)
			}
		}
	}
	if !si.naive {
		writeHeaps(si.waitQ)
		if si.waitQFlit != nil {
			writeHeaps(si.waitQFlit)
		}
		sw.I64(int64(si.parked))
		if si.finalSeen != nil {
			sw.Bits(si.finalSeen)
			sw.Bits(si.bodySeen)
		}
		sw.Bool(si.mixedFinal)
	}

	// Fault-plane run state: the schedule cursor, dead/killed resources,
	// the open-outage timestamps and the dead-edge wait heaps. The
	// derived tallies (deadEdges, killedTotal, lastRevive) are recomputed
	// on restore. Presence is symmetric: the restore side verified the
	// schedule above, so both ends agree on whether this block exists.
	if si.faults != nil {
		sw.U32(uint32(si.faultIdx))
		sw.Bits(si.deadEdge)
		sw.I32s(si.killedLanes)
		sw.I32s(si.faultSince)
		if si.faultQ != nil {
			writeHeaps(si.faultQ)
		}
		sw.I64(int64(si.aborted))
		sw.Bool(si.faultDead)
	}

	if si.shuffler != nil {
		sw.U64(si.shuffler.State())
	}

	// Run counters and terminal flags.
	sw.I64(int64(si.totalStalls))
	sw.I64(si.flitHops)
	sw.I64(int64(si.maxOccupied))
	sw.I64(int64(si.delivered))
	sw.I64(int64(si.dropped))
	sw.Bool(si.deadlocked)
	sw.Bool(si.truncated)
	sw.U32(uint32(len(si.blockedIDs)))
	for _, id := range si.blockedIDs {
		sw.I32(int32(id)) //wormvet:allow horizon -- message IDs are pinned < MaxHorizon by addWorm
	}
	// Reserved slot: held the deleted sharded stepper's step count.
	// benchmark/'s ckpt-long golden digest pins untraced snapshot sizes,
	// so the 8 bytes stay until the next benchmark PR can re-record it
	// (ROADMAP, frozen-surface shims) — written as zero, no version bump.
	sw.I64(0)

	// Telemetry registry, length-prefixed so a reader without a
	// registry can skip it.
	if si.met != nil {
		sw.Bool(true)
		sw.U32(uint32(si.met.BinarySize()))
		si.met.WriteBinary(sw)
	} else {
		sw.Bool(false)
	}

	sw.U64(snapTrailer)
	return sw.Flush()
}

// writeSealed writes sealed chunk ci's records as Snapshot writes any
// finished record, without building each one: a record of the chunk's
// shape is the chunk's own wire record with its key and times written in,
// and a record of its own shape goes through putRecord whole. Each is
// built in rec: its fixed part, then a finished record's empty path and
// prog.
func (si *Sim) writeSealed(sw *snap.Writer, ci int, rec *[wormFixedBytes + 8]byte) {
	var w worm
	u := si.unseal(ci, &w)
	var tmpl [wormFixedBytes + 8]byte
	putRecord((*[wormFixedBytes]byte)(tmpl[:]), &w)
	endAt := -1 // the slot endTimes puts the end time in, if any
	switch w.status {
	case StatusDelivered:
		endAt = recDeliver
	case StatusDropped, StatusAborted:
		endAt = recDrop
	}
	le := binary.LittleEndian
	for range 1 << wormShift {
		u.read()
		r := &u.rec
		*rec = tmpl
		if r.odd {
			own := w
			setShape(&own, &r.s)
			own.key, own.release, own.injectTime, own.end = r.key, r.release, r.inject, r.end
			own.stalls, own.waitEdge = r.stalls, r.waitEdge
			putRecord((*[wormFixedBytes]byte)(rec[:]), &own)
		} else {
			le.PutUint64(rec[recKey:], r.key)
			le.PutUint32(rec[recRelease:], uint32(r.release))
			le.PutUint32(rec[recInject:], uint32(r.inject))
			if endAt >= 0 {
				le.PutUint32(rec[endAt:], uint32(r.end))
			}
			le.PutUint32(rec[recStalls:], uint32(r.stalls))
			le.PutUint32(rec[recWaitEdge:], uint32(r.waitEdge))
		}
		sw.Raw(rec[:])
	}
}

// RestoreSim rebuilds a Sim from a Snapshot stream over the network g.
// cfg supplies everything a snapshot cannot carry — the callback hooks
// (OnComplete, Metrics, Trace) and the mechanism-only
// CheckInvariants knob — and must match the snapshot on every
// schedule-relevant field: VirtualChannels, LaneDepth, SharedPool,
// RestrictedBandwidth, DropOnDelay, Arbitration, Seed, MaxSteps,
// NaiveScan, ParkStreak, Faults, Retry. The restored Sim continues the run
// byte-identically to the original. When cfg.Metrics is non-nil its
// contents are replaced with the snapshot's registry state, so resumed
// runs report cumulative totals; a failed restore leaves it untouched.
func RestoreSim(g *graph.Graph, cfg Config, rd io.Reader) (*Sim, error) {
	if err := ValidateConfig(g.NumEdges(), cfg); err != nil {
		return nil, err
	}
	r := snap.NewReader(rd, ErrSnapshotCorrupt)
	if !r.Magic(snapMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotFormat)
	}
	if v := r.U32(); r.Err() == nil && v != SnapshotVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrSnapshotFormat, v, SnapshotVersion)
	}

	// Config section: build the Sim the caller's Config describes, then
	// hold the stream to it slot by slot. The whole section is read before
	// the first mismatch is reported, so a truncated stream stays
	// ErrSnapshotCorrupt whatever its surviving slots say.
	numEdges := g.NumEdges()
	si := emptySim(numEdges, cfg)
	var mismatch error
	differs := func(field string, got, want any) {
		if mismatch == nil {
			mismatch = fmt.Errorf("%w: %s: snapshot %v, config %v", ErrSnapshotConfig, field, got, want)
		}
	}
	for _, f := range si.configFields() {
		got := r.Uint(f.width)
		if f.adopt != nil {
			f.adopt(got)
		} else if got != f.val {
			differs(f.name, got, f.val)
		}
	}
	var faults fault.Schedule
	for n := r.Len(MaxHorizon, "fault event"); n > 0 && r.Err() == nil; n-- {
		faults = append(faults, fault.Event{
			Step: int(r.I64()),
			Edge: int(r.U32()),
			Kind: fault.Kind(r.U8()),
		})
	}
	if !slices.Equal(faults, si.faults) {
		differs("Faults", fmt.Sprintf("%d events", len(faults)), fmt.Sprintf("%d events", len(si.faults)))
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if mismatch != nil {
		return nil, mismatch
	}

	si.now = int(r.U64())
	// Clock sanity: a corrupt horizon or a clock outside [0, horizon]
	// would make the restored simulator spin (or idle-step for 2^63
	// steps) instead of terminating at its horizon.
	if r.Err() == nil && (si.maxSteps <= 0 || si.maxSteps > MaxHorizon) {
		r.Fail("horizon %d out of range (0, %d]", si.maxSteps, MaxHorizon)
	}
	if r.Err() == nil && (si.now < 0 || si.now > si.maxSteps) {
		r.Fail("clock %d out of range [0, %d]", si.now, si.maxSteps)
	}
	numWorms := r.Len(MaxHorizon, "worm")
	var sawDelivered, sawDropped, sawAborted int
	for id := 0; id < numWorms && r.Err() == nil; id++ {
		// The fixed part of the record, in Snapshot's field order, decoded
		// from one window; a stream that ends inside it leaves the record
		// zeroed and the loop's Err check ends the restore.
		var rec worm
		var deliver, drop int32
		if b := r.Window(wormFixedBytes); b != nil {
			i32 := func(off int) int32 { return int32(binary.LittleEndian.Uint32(b[off:])) }
			rec.key = binary.LittleEndian.Uint64(b[recKey:])
			rec.d = i32(recD)
			rec.l = i32(recL)
			rec.frontier = i32(recFrontier)
			rec.release = i32(recRelease)
			rec.injectTime = i32(recInject)
			deliver = i32(recDeliver)
			drop = i32(recDrop)
			rec.stalls = i32(recStalls)
			rec.status = Status(b[recStatus])
			rec.parkedAt = i32(recParkedAt)
			rec.waitEdge = i32(recWaitEdge)
			rec.streak = i32(recStreak)
			rec.woken = b[recWoken] != 0
			rec.fHead = i32(recFHead)
			rec.lastInj = i32(recLastInj)
			rec.stretched = b[recStretched] != 0
			rec.blockedOn = i32(recBlockedOn)
			rec.retries = i32(recRetries)
		}
		if keyID(rec.key) != id {
			r.Fail("worm %d: key %#x does not reference it", id, rec.key)
		}
		if rec.status < StatusWaiting || rec.status > StatusAborted {
			r.Fail("worm %d: status %d", id, rec.status)
		}
		// The record keeps one end time, which status reads as a delivery
		// or a drop; a record whose other time is set is not one Snapshot
		// writes, so it is rejected rather than silently losing the time.
		rec.end = deliver
		if rec.status != StatusDelivered {
			rec.end = drop
		}
		if d, p := rec.endTimes(); d != deliver || p != drop {
			r.Fail("worm %d: %v with deliver time %d and drop time %d", id, rec.status, deliver, drop)
		}
		if rec.d < 0 || rec.l < 0 {
			r.Fail("worm %d: path length %d / message length %d", id, rec.d, rec.l)
		}
		if rec.frontier < 0 || (rec.d >= 0 && rec.l >= 0 && rec.frontier > rec.d+rec.l) {
			r.Fail("worm %d: frontier %d out of range [0,%d]", id, rec.frontier, rec.d+rec.l)
		}
		if rec.retries < 0 {
			r.Fail("worm %d: negative retry count %d", id, rec.retries)
		}
		path := r.I32Slice(r.Len(MaxHorizon, "path"))
		if len(path) > 0 {
			if int32(len(path)) != rec.d { //wormvet:allow horizon -- bounded by the MaxHorizon length check
				r.Fail("worm %d: path length %d, d %d", id, len(path), rec.d)
				continue
			}
			for _, e := range path {
				if e < 0 || int(e) >= numEdges {
					r.Fail("worm %d: path edge %d out of range [0,%d)", id, e, numEdges)
				}
			}
		}
		prog := r.I32Slice(r.Len(MaxHorizon, "prog"))
		if len(prog) > 0 && (!si.deepMode || int32(len(prog)) != rec.l) { //wormvet:allow horizon -- bounded by the MaxHorizon length check
			r.Fail("worm %d: prog length %d, l %d, deep %v", id, len(prog), rec.l, si.deepMode)
			continue
		}
		// An in-flight worm walks its path (and, deep mode, its prog
		// array) on the next step, from one arena buffer; a finished worm
		// has let go of its buffer, so whatever the stream carried for one
		// is checked above and dropped.
		rec.off = -1
		if inFlight := rec.status == StatusWaiting || rec.status == StatusActive; inFlight && r.Err() == nil {
			if rec.d > 0 && path == nil {
				r.Fail("worm %d: in flight with no path", id)
			}
			if si.deepMode && rec.l > 0 && prog == nil {
				r.Fail("worm %d: in flight with no prog", id)
			}
			if r.Err() == nil {
				rec.off = si.newBuf(len(path) + len(prog))
				copy(si.path(&rec), path)
				if si.deepMode {
					copy(si.prog(&rec), prog)
				}
			}
		}
		w, _ := si.addWorm()
		*w = rec
		switch w.status {
		case StatusDelivered:
			sawDelivered++
		case StatusDropped:
			sawDropped++
		case StatusAborted:
			sawAborted++
		default:
			continue
		}
		// A finished record is retired as it lands, so a chunk seals the
		// moment its last record is decoded and the restore never holds more
		// than one full chunk of finished records.
		si.finishRecord(id)
		si.sealQueued()
	}

	if r.Err() != nil {
		return nil, r.Err()
	}
	// Membership lists must reference live worms, each at most once per
	// structure class: a finished worm (path and prog freed) re-entered
	// into a scheduling structure would be stepped and walk freed
	// storage, and a duplicated reference outlives its worm's completion
	// and does the same one delivery later. The two classes are checked
	// separately because under ArbRandom a parked worm legitimately
	// appears in both the active order (skipped via parkedAt) and its
	// wait heap.
	seenList := make([]bool, numWorms)
	seenHeap := make([]bool, numWorms)
	checkKeys := func(keys []uint64, what string, heap bool) {
		seen := seenList
		if heap {
			seen = seenHeap
		}
		for _, k := range keys {
			id := keyID(k)
			if id >= numWorms {
				r.Fail("%s key %#x references worm %d of %d", what, k, id, numWorms)
				return
			}
			if si.wormChunks[id>>wormShift] == nil {
				r.Fail("%s key %#x references worm %d, which finished in a sealed chunk", what, k, id)
				return
			}
			w := si.worm(id)
			if w.status != StatusWaiting && w.status != StatusActive {
				r.Fail("%s key %#x references a finished worm (status %d)", what, k, w.status)
				return
			}
			if heap && w.parkedAt < 0 {
				r.Fail("%s key %#x references worm %d, which is not parked", what, k, id)
				return
			}
			if seen[id] {
				r.Fail("%s key %#x references worm %d twice", what, k, id)
				return
			}
			seen[id] = true
		}
	}
	si.pending = r.U64Slice(r.Len(numWorms, "pending"))
	checkKeys(si.pending, "pending", false)
	si.active = r.U64Slice(r.Len(numWorms, "active"))
	checkKeys(si.active, "active", false)
	if r.Bool() {
		// The naive scan's lazily materialized ID-ordered view. Under
		// ArbByID keys are bare worm indices, so a sorted copy of the
		// active list reconstructs it exactly.
		si.byID = append([]uint64(nil), si.active...)
		slices.Sort(si.byID)
	}

	// laneFree is decoded straight into the edge records.
	if n := r.U32(); int(n) != numEdges {
		r.Fail("laneFree length %d, want %d", n, numEdges)
	}
	for e := range si.edges {
		si.edges[e].laneFree = r.I32()
	}
	if si.deepMode {
		r.I32sInto(skipLen(r, si.flitFree, "flitFree"))
	}

	readHeaps := func(qs [][]uint64, what string) {
		prev := -1
		for n := r.Len(numEdges, what); n > 0; n-- {
			e := int(r.U32())
			if e <= prev || e >= numEdges {
				r.Fail("%s edge %d out of order or range", what, e)
				return
			}
			prev = e
			q := r.U64Slice(r.Len(numWorms, what))
			checkKeys(q, what, true)
			if r.Err() != nil {
				return
			}
			qs[e] = q
		}
	}
	if !si.naive {
		readHeaps(si.waitQ, "waitQ")
		if si.waitQFlit != nil {
			readHeaps(si.waitQFlit, "waitQFlit")
		}
		// The waiters bits are not on the wire: they follow from the heaps.
		for e := range si.edges {
			if si.queued(e) {
				si.edges[e].waiters = 1
			}
		}
		si.parked = int(r.I64())
		if si.finalSeen != nil {
			r.BitsInto(si.finalSeen)
			r.BitsInto(si.bodySeen)
		}
		si.mixedFinal = r.Bool()
	}

	// Fault-plane run state (present iff a schedule is attached, which
	// the config section verified the caller agrees on). The derived
	// tallies are recomputed from the serialized arrays.
	if si.faults != nil {
		si.faultIdx = int(r.U32())
		if si.faultIdx > len(si.faults) {
			r.Fail("fault cursor %d past schedule length %d", si.faultIdx, len(si.faults))
		}
		r.BitsInto(si.deadEdge)
		r.I32sInto(skipLen(r, si.killedLanes, "killedLanes"))
		r.I32sInto(skipLen(r, si.faultSince, "faultSince"))
		if si.faultQ != nil {
			readHeaps(si.faultQ, "faultQ")
		}
		si.aborted = int(r.I64())
		si.faultDead = r.Bool()
		for e := range si.deadEdge {
			if si.deadEdge[e] {
				si.deadEdges++
			}
			k := si.killedLanes[e]
			if k < 0 || k > si.bI32 {
				r.Fail("edge %d: killed lanes %d out of range [0,%d]", e, k, si.bI32)
			}
			si.killedTotal += int(k)
		}
	}

	if si.shuffler != nil {
		si.shuffler.Reseed(r.U64())
	}

	si.totalStalls = int(r.I64())
	si.flitHops = r.I64()
	si.maxOccupied = int(r.I64())
	si.delivered = int(r.I64())
	si.dropped = int(r.I64())
	// Cross-check the terminal counters against the per-worm statuses: a
	// flipped counter (or status) would skew Active() and either strand
	// the drain loop or end a run early.
	if r.Err() == nil && (si.delivered != sawDelivered || si.dropped != sawDropped || si.aborted != sawAborted) {
		r.Fail("terminal counters %d/%d/%d disagree with worm statuses %d/%d/%d",
			si.delivered, si.dropped, si.aborted, sawDelivered, sawDropped, sawAborted)
	}
	si.deadlocked = r.Bool()
	si.truncated = r.Bool()
	if n := r.Len(numWorms, "blockedIDs"); n > 0 {
		si.blockedIDs = make([]message.ID, n)
		for i := range si.blockedIDs {
			si.blockedIDs[i] = message.ID(r.I32())
		}
	}
	// Reserved slot (see Snapshot): discarded unvalidated, so snapshots
	// an older build wrote with a non-zero count still restore.
	r.I64()

	var metrics []byte
	hasMetrics := r.Bool()
	if hasMetrics {
		metrics = r.Blob(r.Len(1<<30, "metrics blob"))
	}

	if t := r.U64(); r.Err() == nil && t != snapTrailer {
		r.Fail("missing trailer")
	}
	// The caller's registry is touched last, once the stream is known
	// whole (and UnmarshalBinary is itself all-or-nothing): a rejected
	// restore must leave cfg.Metrics fit for the fresh run that follows.
	if r.Err() == nil && hasMetrics && si.met != nil {
		if err := si.met.UnmarshalBinary(metrics); err != nil {
			r.Fail("metrics blob: %v", err)
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return si, nil
}

// skipLen validates a serialized fixed-size array's length prefix
// against the expected destination and returns the destination (or an
// empty slice on mismatch, so the read is a no-op after the error).
func skipLen(r *snap.Reader, dst []int32, what string) []int32 {
	if n := r.U32(); int(n) != len(dst) {
		r.Fail("%s length %d, want %d", what, n, len(dst))
		return nil
	}
	return dst
}
