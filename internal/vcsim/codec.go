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
// all per-step scratch buffers. The path/prog recycling freelists are
// also skipped: a restored Sim simply bump-allocates its next paths
// from the arena, which is observably identical because recycled
// buffers are always fully overwritten before use.
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
// Config, because hooks (Observer, OnComplete, Metrics, Trace) cannot
// be serialized. Every schedule-relevant Config field is verified
// against the snapshot and mismatch is an error (ErrSnapshotConfig);
// CheckInvariants is free to differ — it is pure mechanism with
// byte-identical results. Trace ring contents do not survive a restore
// (the ring is diagnostics, not schedule state).

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"

	"wormhole/internal/fault"
	"wormhole/internal/graph"
	"wormhole/internal/message"
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

// snapWriter serializes fixed-width little-endian values, capturing the
// first write error so call sites stay unconditional.
type snapWriter struct {
	w   *bufio.Writer
	err error
}

func (s *snapWriter) u8(v uint8) {
	if s.err == nil {
		s.err = s.w.WriteByte(v)
	}
}

func (s *snapWriter) bool(v bool) {
	if v {
		s.u8(1)
	} else {
		s.u8(0)
	}
}

func (s *snapWriter) u32(v uint32) {
	var b [4]byte
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	if s.err == nil {
		_, s.err = s.w.Write(b[:])
	}
}

func (s *snapWriter) u64(v uint64) {
	s.u32(uint32(v))
	//wormvet:allow keypack -- little-endian wire split of a 64-bit word, not a policy-key pack
	s.u32(uint32(v >> 32))
}

func (s *snapWriter) i32(v int32) { s.u32(uint32(v)) }
func (s *snapWriter) i64(v int64) { s.u64(uint64(v)) }

func (s *snapWriter) i32s(v []int32) {
	s.u32(uint32(len(v)))
	for _, x := range v {
		s.i32(x)
	}
}

func (s *snapWriter) keys(v []uint64) {
	s.u32(uint32(len(v)))
	for _, x := range v {
		s.u64(x)
	}
}

// bits packs a []bool as a bitset (length is implied by the reader).
func (s *snapWriter) bits(v []bool) {
	var acc uint8
	for i, b := range v {
		if b {
			acc |= 1 << (i & 7)
		}
		if i&7 == 7 {
			s.u8(acc)
			acc = 0
		}
	}
	if len(v)&7 != 0 {
		s.u8(acc)
	}
}

// snapReader mirrors snapWriter; the first failure (I/O or validation)
// sticks and every later read returns zero.
type snapReader struct {
	r   *bufio.Reader
	err error
}

func (s *snapReader) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
	}
}

func (s *snapReader) u8() uint8 {
	if s.err != nil {
		return 0
	}
	b, err := s.r.ReadByte()
	if err != nil {
		s.err = fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		return 0
	}
	return b
}

func (s *snapReader) bool() bool { return s.u8() != 0 }

func (s *snapReader) u32() uint32 {
	var b [4]byte
	if s.err != nil {
		return 0
	}
	if _, err := io.ReadFull(s.r, b[:]); err != nil {
		s.err = fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (s *snapReader) u64() uint64 {
	lo := s.u32()
	hi := s.u32()
	//wormvet:allow keypack -- little-endian wire join of a 64-bit word, not a policy-key unpack
	return uint64(lo) | uint64(hi)<<32
}

func (s *snapReader) i32() int32 { return int32(s.u32()) }
func (s *snapReader) i64() int64 { return int64(s.u64()) }

// length reads a element count and bounds it: a corrupt count must not
// drive a giant allocation before validation catches it.
func (s *snapReader) length(max int, what string) int {
	n := s.u32()
	if int64(n) > int64(max) {
		s.fail("%s count %d exceeds bound %d", what, n, max)
		return 0
	}
	return int(n)
}

// i32sInto fills a fixed-size destination (the per-edge credit arrays,
// whose length is pinned by the network, never by stream data).
func (s *snapReader) i32sInto(dst []int32) {
	for i := range dst {
		dst[i] = s.i32()
	}
}

// i32Slice and keySlice grow their result incrementally instead of
// pre-allocating n elements: a corrupt length prefix must hit EOF after
// the stream's actual bytes, not drive a count-sized allocation first.
func (s *snapReader) i32Slice(n int) []int32 {
	var out []int32
	for i := 0; i < n && s.err == nil; i++ {
		out = append(out, s.i32())
	}
	if s.err != nil {
		return nil
	}
	return out
}

func (s *snapReader) keySlice(n int) []uint64 {
	var out []uint64
	for i := 0; i < n && s.err == nil; i++ {
		out = append(out, s.u64())
	}
	if s.err != nil {
		return nil
	}
	return out
}

// blob reads an n-byte blob in bounded chunks, for the same reason.
func (s *snapReader) blob(n int, what string) []byte {
	var out []byte
	for n > 0 && s.err == nil {
		chunk := min(n, 1<<16)
		buf := make([]byte, chunk)
		if _, err := io.ReadFull(s.r, buf); err != nil {
			s.fail("%s: %v", what, err)
			return nil
		}
		out = append(out, buf...)
		n -= chunk
	}
	return out
}

func (s *snapReader) bitsInto(dst []bool) {
	var acc uint8
	for i := range dst {
		if i&7 == 0 {
			acc = s.u8()
		}
		dst[i] = acc&(1<<(i&7)) != 0
	}
}

// Snapshot serializes the simulator's complete schedule state to w.
// Callable at any public-API point in the Sim's life (between steps);
// the Sim is not mutated. Restore with RestoreSim.
func (si *Sim) Snapshot(w io.Writer) error {
	sw := &snapWriter{w: bufio.NewWriter(w)}
	sw.w.WriteString(snapMagic)
	sw.u32(SnapshotVersion)

	// Schedule-relevant configuration, verified on restore. Normalized
	// values (depth, parkStreak) are stored so the 0-means-default
	// aliases compare equal.
	sw.u32(uint32(len(si.laneFree)))
	sw.i32(int32(si.b)) //wormvet:allow horizon -- b = VirtualChannels, validated ≥ 1 and bounded by the pool-layout check
	sw.i32(si.depth)
	sw.bool(si.shared)
	sw.bool(si.cfg.RestrictedBandwidth)
	sw.bool(si.cfg.DropOnDelay)
	sw.bool(si.naive)
	sw.bool(si.recycle)
	sw.u8(uint8(si.cfg.Arbitration))
	sw.i32(si.parkStreak)
	sw.u64(si.cfg.Seed)
	sw.i64(int64(si.cfg.MaxSteps))
	sw.i64(int64(si.maxSteps))

	// Fault schedule and (normalized) retry policy: schedule-relevant,
	// so the restore side verifies them against its Config like every
	// other field above.
	sw.i32(int32(si.retryMax)) //wormvet:allow horizon -- validateFaults bounds MaxAttempts ≥ 0; practical values are tiny
	sw.i32(si.retryBase)
	sw.i32(si.retryCap)
	sw.u32(uint32(len(si.faults)))
	for _, ev := range si.faults {
		sw.i64(int64(ev.Step))
		sw.u32(uint32(ev.Edge))
		sw.u8(uint8(ev.Kind))
	}

	// Worm records, in ID order. Completed worms ride along with empty
	// path/prog — their stats must survive for Result and the dense ID
	// index.
	sw.u64(uint64(si.now))
	sw.u32(uint32(si.numWorms))
	for i := 0; i < si.numWorms; i++ {
		w := si.worm(i)
		sw.u64(w.key)
		sw.i32(w.d)
		sw.i32(w.l)
		sw.i32(w.frontier)
		sw.i32(w.release)
		sw.i32(w.injectTime)
		sw.i32(w.deliverTime)
		sw.i32(w.dropTime)
		sw.i32(w.stalls)
		sw.u8(uint8(w.status))
		sw.i32(w.parkedAt)
		sw.i32(w.waitEdge)
		sw.i32(w.streak)
		sw.bool(w.woken)
		sw.i32(w.fHead)
		sw.i32(w.lastInj)
		sw.bool(w.stretched)
		sw.i32(w.blockedOn)
		sw.i32(w.retries)
		sw.i32s(w.path)
		sw.i32s(w.prog)
	}

	// Key lists. The pending window is normalized to start at 0; the
	// active list keeps its engine-specific order verbatim.
	sw.keys(si.pending[si.pendHead:])
	sw.keys(si.active)
	sw.bool(si.byID != nil)

	// Per-edge credit state.
	sw.i32s(si.laneFree)
	if si.deepMode {
		sw.i32s(si.flitFree)
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
		sw.u32(uint32(nonEmpty))
		for e, q := range qs {
			if len(q) > 0 {
				sw.u32(uint32(e))
				sw.keys(q)
			}
		}
	}
	if !si.naive {
		writeHeaps(si.waitQ)
		if si.waitQFlit != nil {
			writeHeaps(si.waitQFlit)
		}
		sw.i64(int64(si.parked))
		if si.finalSeen != nil {
			sw.bits(si.finalSeen)
			sw.bits(si.bodySeen)
		}
		sw.bool(si.mixedFinal)
	}

	// Fault-plane run state: the schedule cursor, dead/killed resources,
	// the open-outage timestamps and the dead-edge wait heaps. The
	// derived tallies (deadEdges, killedTotal, lastRevive) are recomputed
	// on restore. Presence is symmetric: the restore side verified the
	// schedule above, so both ends agree on whether this block exists.
	if si.faults != nil {
		sw.u32(uint32(si.faultIdx))
		sw.bits(si.deadEdge)
		sw.i32s(si.killedLanes)
		sw.i32s(si.faultSince)
		if si.faultQ != nil {
			writeHeaps(si.faultQ)
		}
		sw.i64(int64(si.aborted))
		sw.bool(si.faultDead)
	}

	if si.shuffler != nil {
		sw.u64(si.shuffler.State())
	}

	// Run counters and terminal flags.
	sw.i64(int64(si.totalStalls))
	sw.i64(si.flitHops)
	sw.i64(int64(si.maxOccupied))
	sw.i64(int64(si.delivered))
	sw.i64(int64(si.dropped))
	sw.bool(si.deadlocked)
	sw.bool(si.truncated)
	sw.u32(uint32(len(si.blockedIDs)))
	for _, id := range si.blockedIDs {
		sw.i32(int32(id)) //wormvet:allow horizon -- message IDs are pinned < MaxHorizon by addWorm
	}
	// Reserved slot: held the deleted sharded stepper's step count.
	// benchmark/'s ckpt-long golden digest pins untraced snapshot sizes,
	// so the 8 bytes stay until the next benchmark PR can re-record it
	// (ROADMAP, frozen-surface shims) — written as zero, no version bump.
	sw.i64(0)

	// Telemetry registry, length-prefixed so a reader without a
	// registry can skip it.
	if si.met != nil {
		sw.bool(true)
		blob, _ := si.met.MarshalBinary()
		sw.u32(uint32(len(blob)))
		if sw.err == nil {
			_, sw.err = sw.w.Write(blob)
		}
	} else {
		sw.bool(false)
	}

	sw.u64(snapTrailer)
	if sw.err != nil {
		return sw.err
	}
	return sw.w.Flush()
}

// RestoreSim rebuilds a Sim from a Snapshot stream over the network g.
// cfg supplies everything a snapshot cannot carry — the callback hooks
// (Observer, OnComplete, Metrics, Trace) and the mechanism-only
// CheckInvariants knob — and must match the snapshot on every
// schedule-relevant field: VirtualChannels, LaneDepth, SharedPool,
// RestrictedBandwidth, DropOnDelay, Arbitration, Seed, MaxSteps,
// NaiveScan, ParkStreak, Faults, Retry. The restored Sim continues the run
// byte-identically to the original. When cfg.Metrics is non-nil its
// contents are replaced with the snapshot's registry state, so resumed
// runs report cumulative totals.
func RestoreSim(g *graph.Graph, cfg Config, rd io.Reader) (*Sim, error) {
	if cfg.VirtualChannels < 1 {
		return nil, fmt.Errorf("%w: VirtualChannels %d < 1", ErrBadConfig, cfg.VirtualChannels)
	}
	if err := validateArch(cfg); err != nil {
		return nil, err
	}
	if err := validateFaults(g.NumEdges(), cfg); err != nil {
		return nil, err
	}
	r := &snapReader{r: bufio.NewReader(rd)}
	var magic [len(snapMagic)]byte
	if _, err := io.ReadFull(r.r, magic[:]); err != nil || string(magic[:]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotFormat)
	}
	if v := r.u32(); r.err == nil && v != SnapshotVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrSnapshotFormat, v, SnapshotVersion)
	}

	// Config section: decode, then verify against g and cfg.
	numEdges := int(r.u32())
	b := r.i32()
	depth := r.i32()
	shared := r.bool()
	restricted := r.bool()
	drop := r.bool()
	naive := r.bool()
	recycle := r.bool()
	arb := Policy(r.u8())
	parkStreak := r.i32()
	seed := r.u64()
	cfgMaxSteps := r.i64()
	maxSteps := r.i64()
	retryMax := r.i32()
	retryBase := r.i32()
	retryCap := r.i32()
	var faults fault.Schedule
	for n := r.length(MaxHorizon, "fault event"); n > 0 && r.err == nil; n-- {
		faults = append(faults, fault.Event{
			Step: int(r.i64()),
			Edge: int(r.u32()),
			Kind: fault.Kind(r.u8()),
		})
	}
	if r.err != nil {
		return nil, r.err
	}
	wantDepth := cfg.LaneDepth
	if wantDepth == 0 {
		wantDepth = 1
	}
	wantStreak := cfg.ParkStreak
	if wantStreak == 0 {
		wantStreak = defaultParkStreak
	}
	mismatch := func(field string, snap, want any) error {
		return fmt.Errorf("%w: %s: snapshot %v, config %v", ErrSnapshotConfig, field, snap, want)
	}
	// Normalize the caller's retry policy exactly as emptySim does: the
	// fields are zero when no schedule is attached, defaulted otherwise.
	wantRetryMax, wantRetryBase, wantRetryCap := 0, int32(0), int32(0)
	if len(cfg.Faults) > 0 {
		wantRetryMax = cfg.Retry.MaxAttempts
		base, bcap := cfg.Retry.Backoff, cfg.Retry.BackoffCap
		if base <= 0 {
			base = 16
		}
		if bcap <= 0 {
			bcap = 1024
		}
		wantRetryBase = int32(base) //wormvet:allow horizon -- validateFaults bounds Backoff ≤ MaxHorizon
		wantRetryCap = int32(bcap)  //wormvet:allow horizon -- validateFaults bounds BackoffCap ≤ MaxHorizon
	}
	switch {
	case numEdges != g.NumEdges():
		return nil, mismatch("network edges", numEdges, g.NumEdges())
	case int(b) != cfg.VirtualChannels:
		return nil, mismatch("VirtualChannels", b, cfg.VirtualChannels)
	case int(depth) != wantDepth:
		return nil, mismatch("LaneDepth", depth, wantDepth)
	case shared != cfg.SharedPool:
		return nil, mismatch("SharedPool", shared, cfg.SharedPool)
	case restricted != cfg.RestrictedBandwidth:
		return nil, mismatch("RestrictedBandwidth", restricted, cfg.RestrictedBandwidth)
	case drop != cfg.DropOnDelay:
		return nil, mismatch("DropOnDelay", drop, cfg.DropOnDelay)
	case naive != cfg.NaiveScan:
		return nil, mismatch("NaiveScan", naive, cfg.NaiveScan)
	case arb != cfg.Arbitration:
		return nil, mismatch("Arbitration", arb, cfg.Arbitration)
	case int(parkStreak) != wantStreak:
		return nil, mismatch("ParkStreak", parkStreak, wantStreak)
	case seed != cfg.Seed:
		return nil, mismatch("Seed", seed, cfg.Seed)
	case cfgMaxSteps != int64(cfg.MaxSteps):
		return nil, mismatch("MaxSteps", cfgMaxSteps, cfg.MaxSteps)
	case !slices.Equal(faults, cfg.Faults):
		return nil, mismatch("Faults", fmt.Sprintf("%d events", len(faults)), fmt.Sprintf("%d events", len(cfg.Faults)))
	case int(retryMax) != wantRetryMax:
		return nil, mismatch("Retry.MaxAttempts", retryMax, wantRetryMax)
	case retryBase != wantRetryBase:
		return nil, mismatch("Retry.Backoff", retryBase, wantRetryBase)
	case retryCap != wantRetryCap:
		return nil, mismatch("Retry.BackoffCap", retryCap, wantRetryCap)
	}

	si := emptySim(numEdges, cfg)
	si.maxSteps = int(maxSteps)
	si.recycle = recycle

	si.now = int(r.u64())
	// Clock sanity: a corrupt horizon or a clock outside [0, horizon]
	// would make the restored simulator spin (or idle-step for 2^63
	// steps) instead of terminating at its horizon.
	if r.err == nil && (maxSteps <= 0 || maxSteps > MaxHorizon) {
		r.fail("horizon %d out of range (0, %d]", maxSteps, MaxHorizon)
	}
	if r.err == nil && (si.now < 0 || si.now > si.maxSteps) {
		r.fail("clock %d out of range [0, %d]", si.now, si.maxSteps)
	}
	numWorms := r.length(MaxHorizon, "worm")
	var sawDelivered, sawDropped, sawAborted int
	for id := 0; id < numWorms && r.err == nil; id++ {
		w, _ := si.addWorm()
		w.id = int32(id) //wormvet:allow horizon -- bounded by the MaxHorizon length check above
		w.key = r.u64()
		w.d = r.i32()
		w.l = r.i32()
		w.frontier = r.i32()
		w.release = r.i32()
		w.injectTime = r.i32()
		w.deliverTime = r.i32()
		w.dropTime = r.i32()
		w.stalls = r.i32()
		w.status = Status(r.u8())
		w.parkedAt = r.i32()
		w.waitEdge = r.i32()
		w.streak = r.i32()
		w.woken = r.bool()
		w.fHead = r.i32()
		w.lastInj = r.i32()
		w.stretched = r.bool()
		w.blockedOn = r.i32()
		w.retries = r.i32()
		if keyID(w.key) != id {
			r.fail("worm %d: key %#x does not reference it", id, w.key)
		}
		if w.status < StatusWaiting || w.status > StatusAborted {
			r.fail("worm %d: status %d", id, w.status)
		}
		if w.d < 0 || w.l < 0 {
			r.fail("worm %d: path length %d / message length %d", id, w.d, w.l)
		}
		if w.frontier < 0 || (w.d >= 0 && w.l >= 0 && w.frontier > w.d+w.l) {
			r.fail("worm %d: frontier %d out of range [0,%d]", id, w.frontier, w.d+w.l)
		}
		if w.retries < 0 {
			r.fail("worm %d: negative retry count %d", id, w.retries)
		}
		if p := r.i32Slice(r.length(MaxHorizon, "path")); len(p) > 0 {
			if int32(len(p)) != w.d { //wormvet:allow horizon -- bounded by the MaxHorizon length check
				r.fail("worm %d: path length %d, d %d", id, len(p), w.d)
				continue
			}
			for _, e := range p {
				if e < 0 || int(e) >= numEdges {
					r.fail("worm %d: path edge %d out of range [0,%d)", id, e, numEdges)
				}
			}
			w.path = si.arena.alloc(len(p))
			copy(w.path, p)
		}
		if pr := r.i32Slice(r.length(MaxHorizon, "prog")); len(pr) > 0 {
			if !si.deepMode || int32(len(pr)) != w.l { //wormvet:allow horizon -- bounded by the MaxHorizon length check
				r.fail("worm %d: prog length %d, l %d, deep %v", id, len(pr), w.l, si.deepMode)
				continue
			}
			w.prog = si.arena.alloc(len(pr))
			copy(w.prog, pr)
		}
		// An in-flight worm walks its path (and, deep mode, its prog
		// array) on the next step; only finished worms have them freed.
		if inFlight := w.status == StatusWaiting || w.status == StatusActive; inFlight && r.err == nil {
			if w.d > 0 && w.path == nil {
				r.fail("worm %d: in flight with no path", id)
			}
			if si.deepMode && w.l > 0 && w.prog == nil {
				r.fail("worm %d: in flight with no prog", id)
			}
		}
		switch w.status {
		case StatusDelivered:
			sawDelivered++
		case StatusDropped:
			sawDropped++
		case StatusAborted:
			sawAborted++
		}
	}

	if r.err != nil {
		return nil, r.err
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
				r.fail("%s key %#x references worm %d of %d", what, k, id, numWorms)
				return
			}
			w := si.worm(id)
			if w.status != StatusWaiting && w.status != StatusActive {
				r.fail("%s key %#x references a finished worm (status %d)", what, k, w.status)
				return
			}
			if heap && w.parkedAt < 0 {
				r.fail("%s key %#x references worm %d, which is not parked", what, k, id)
				return
			}
			if seen[id] {
				r.fail("%s key %#x references worm %d twice", what, k, id)
				return
			}
			seen[id] = true
		}
	}
	si.pending = r.keySlice(r.length(numWorms, "pending"))
	checkKeys(si.pending, "pending", false)
	si.active = r.keySlice(r.length(numWorms, "active"))
	checkKeys(si.active, "active", false)
	if r.bool() {
		// The naive scan's lazily materialized ID-ordered view. Under
		// ArbByID keys are bare worm indices, so a sorted copy of the
		// active list reconstructs it exactly.
		si.byID = append([]uint64(nil), si.active...)
		slices.Sort(si.byID)
	}

	r.i32sInto(skipLen(r, si.laneFree, "laneFree"))
	if si.deepMode {
		r.i32sInto(skipLen(r, si.flitFree, "flitFree"))
	}

	readHeaps := func(qs [][]uint64, what string) {
		prev := -1
		for n := r.length(numEdges, what); n > 0; n-- {
			e := int(r.u32())
			if e <= prev || e >= numEdges {
				r.fail("%s edge %d out of order or range", what, e)
				return
			}
			prev = e
			q := r.keySlice(r.length(numWorms, what))
			checkKeys(q, what, true)
			if r.err != nil {
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
		si.parked = int(r.i64())
		if si.finalSeen != nil {
			r.bitsInto(si.finalSeen)
			r.bitsInto(si.bodySeen)
		}
		si.mixedFinal = r.bool()
	}

	// Fault-plane run state (present iff a schedule is attached, which
	// the config section verified the caller agrees on). The derived
	// tallies are recomputed from the serialized arrays.
	if si.faults != nil {
		si.faultIdx = int(r.u32())
		if si.faultIdx > len(si.faults) {
			r.fail("fault cursor %d past schedule length %d", si.faultIdx, len(si.faults))
		}
		r.bitsInto(si.deadEdge)
		r.i32sInto(skipLen(r, si.killedLanes, "killedLanes"))
		r.i32sInto(skipLen(r, si.faultSince, "faultSince"))
		if si.faultQ != nil {
			readHeaps(si.faultQ, "faultQ")
		}
		si.aborted = int(r.i64())
		si.faultDead = r.bool()
		for e := range si.deadEdge {
			if si.deadEdge[e] {
				si.deadEdges++
			}
			k := si.killedLanes[e]
			if k < 0 || k > si.bI32 {
				r.fail("edge %d: killed lanes %d out of range [0,%d]", e, k, si.bI32)
			}
			si.killedTotal += int(k)
		}
	}

	if si.shuffler != nil {
		si.shuffler.Reseed(r.u64())
	}

	si.totalStalls = int(r.i64())
	si.flitHops = r.i64()
	si.maxOccupied = int(r.i64())
	si.delivered = int(r.i64())
	si.dropped = int(r.i64())
	// Cross-check the terminal counters against the per-worm statuses: a
	// flipped counter (or status) would skew Active() and either strand
	// the drain loop or end a run early.
	if r.err == nil && (si.delivered != sawDelivered || si.dropped != sawDropped || si.aborted != sawAborted) {
		r.fail("terminal counters %d/%d/%d disagree with worm statuses %d/%d/%d",
			si.delivered, si.dropped, si.aborted, sawDelivered, sawDropped, sawAborted)
	}
	si.deadlocked = r.bool()
	si.truncated = r.bool()
	if n := r.length(numWorms, "blockedIDs"); n > 0 {
		si.blockedIDs = make([]message.ID, n)
		for i := range si.blockedIDs {
			si.blockedIDs[i] = message.ID(r.i32())
		}
	}
	// Reserved slot (see Snapshot): discarded unvalidated, so snapshots
	// an older build wrote with a non-zero count still restore.
	r.i64()

	if r.bool() {
		blob := r.blob(r.length(1<<30, "metrics blob"), "metrics blob")
		if r.err == nil && si.met != nil {
			if err := si.met.UnmarshalBinary(blob); err != nil {
				r.fail("metrics blob: %v", err)
			}
		}
	}

	if t := r.u64(); r.err == nil && t != snapTrailer {
		r.fail("missing trailer")
	}
	if r.err != nil {
		return nil, r.err
	}
	return si, nil
}

// skipLen validates a serialized fixed-size array's length prefix
// against the expected destination and returns the destination (or an
// empty slice on mismatch, so the read is a no-op after the error).
func skipLen(r *snapReader, dst []int32, what string) []int32 {
	if n := r.u32(); int(n) != len(dst) {
		r.fail("%s length %d, want %d", what, n, len(dst))
		return nil
	}
	return dst
}
