package vcsim

// This file retires finished worm records. A long open-loop Sim keeps a
// record for every message it ever injected — IDs index records for the
// life of the run, and Result and Snapshot report every one — but nothing
// steps a finished worm again, and a finished record differs from its
// neighbours in little more than its times. So once every worm of a full
// chunk has finished, the chunk is sealed: its records are encoded into a
// few bytes each in Sim.sealed and the 288 KB chunk goes back for reuse.
// No chunk is ever dropped: a Sim owns as many as it once held live at
// the same moment — a few under streaming injection, every one of a batch
// loaded up front — so a run replayed through Reset allocates none. (With
// at most two spares kept, a Reset loop that injects a whole workload up
// front reallocated every chunk per run: BenchmarkRigidAdvance +20–30%.)
//
// The watermark is a per-chunk count of unfinished worms (chunkMeta):
// addWorm raises it, retire lowers it, and a full chunk whose count reaches
// zero is queued. The queue is sealed at the end of applyStepEnd, never
// inside an advance loop, so no *worm a step still holds moves under it;
// RestoreSim seals a chunk as soon as its last record is decoded.
//
// Sealed form. The chunk's common shape — every field but the times, the
// release and waitEdge — is written once, as zig-zag varints in shape
// order. Then each record, in ID order:
//
//	uvarint  zigzag(release − previous release)<<1 | differs
//	varint   injectTime − release
//	varint   end − injectTime
//	varint   stalls
//	varint   waitEdge
//	if differs: uvarint mask of the shape fields that differ from the
//	            chunk's, then one varint delta per set bit
//
// with a previous release of 0 before the first record. The form is
// lossless for every int32 value of every field the snapshot wire carries
// (FuzzSealChunk); off is -1 in every finished record, and the low half of
// key is the ID.
//
// Readers of finished records go through one decoder (unsealer). Result,
// stampDeadlock and the invariant checks iterate records, which decodes
// sealed chunks in order — the last two look only at unfinished worms and
// skip them; Snapshot transcodes a sealed chunk straight into wire bytes
// (writeSealed).

import (
	"iter"
	"math"
)

// chunkMeta is one worm chunk's sealing bookkeeping.
type chunkMeta struct {
	// unfinished is the watermark: the chunk's worms that have not yet
	// finished. A full chunk is sealed when it reaches zero.
	unfinished int32
	// sealed is the chunk's encoded records, a piece of one of
	// Sim.sealed's blocks, once Sim.wormChunks no longer holds the chunk.
	sealed []byte
}

// sealBlock sizes the blocks sealed records are kept in: three or so
// chunks' worth at ≈ 5 bytes a record. Blocks are never re-copied — each
// copy an outgrown arena left behind stayed resident, 3 MB of knee-deep's
// peak RSS when the arena doubled — and a chunk's records never straddle
// two, so a block's tail can go unused.
const sealBlock = 64 << 10

// The shape fields of a finished record, in sealed order: what a chunk's
// records mostly share. shKey is the key's high half relative to what the
// policy puts there (see keyRel).
const (
	shD = iota
	shL
	shFrontier
	shStreak
	shStatus
	shWoken
	shStretched
	shKey
	shParkedAt
	shFHead
	shLastInj
	shBlockedOn
	shRetries
	shapeFields
)

type shape [shapeFields]int64

// addWorm appends a worm slot and returns it with its id; the slot's
// contents are stale, and the caller overwrites the whole record. Ids are
// bounded by MaxHorizon so they always fit the 32-bit halves of packed
// keys; hitting the bound means ~2³¹ injected messages, far past any
// memory budget, so it panics rather than errors. The new worm counts as
// unfinished until retire (or, restoring, finishRecord) says otherwise.
func (si *Sim) addWorm() (*worm, int) {
	id := si.numWorms
	if id >= MaxHorizon {
		panicf("vcsim: worm count %d reached MaxHorizon", id)
	}
	ci := id >> wormShift
	if ci == len(si.wormChunks) {
		var c *wormChunk
		if k := len(si.spare); k > 0 {
			c, si.spare = si.spare[k-1], si.spare[:k-1]
		} else {
			c = new(wormChunk)
		}
		si.wormChunks = append(si.wormChunks, c)
		si.chunks = append(si.chunks, chunkMeta{})
	}
	si.chunks[ci].unfinished++
	si.numWorms++
	return &si.wormChunks[ci][id&wormMask], id
}

// finishRecord lowers the watermark of worm id's chunk and queues the chunk
// for sealing when that was its last unfinished worm and it is full.
//
//wormvet:hotpath
func (si *Sim) finishRecord(id int) {
	ci := id >> wormShift
	m := &si.chunks[ci]
	m.unfinished--
	if m.unfinished == 0 && (ci+1)<<wormShift <= si.numWorms {
		si.toSeal = append(si.toSeal, ci)
	}
}

// sealQueued seals every chunk finishRecord queued.
//
//wormvet:hotpath
func (si *Sim) sealQueued() {
	for _, ci := range si.toSeal {
		si.seal(ci)
	}
	si.toSeal = si.toSeal[:0]
}

// keyRel is the high half of w's key minus what the arbitration policy
// puts there (the release under ArbAge, zero otherwise): zero for every
// record the engine writes.
//
//wormvet:hotpath
func (si *Sim) keyRel(w *worm) int64 {
	rel := int64(keyRelease(w.key))
	if si.cfg.Arbitration == ArbAge {
		rel -= int64(w.release)
	}
	return rel
}

// shapeOf lists w's shape fields.
//
//wormvet:hotpath
func (si *Sim) shapeOf(w *worm) shape {
	return shape{
		shD:         int64(w.d),
		shL:         int64(w.l),
		shFrontier:  int64(w.frontier),
		shStreak:    int64(w.streak),
		shStatus:    int64(w.status),
		shWoken:     bit(w.woken),
		shStretched: bit(w.stretched),
		shKey:       si.keyRel(w),
		shParkedAt:  int64(w.parkedAt),
		shFHead:     int64(w.fHead),
		shLastInj:   int64(w.lastInj),
		shBlockedOn: int64(w.blockedOn),
		shRetries:   int64(w.retries),
	}
}

//wormvet:nonalloc
func bit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sameShape reports whether w's shape fields equal t's, whose keyRel is
// tKey, field by field: the common case of the encoder, which then builds
// no shape at all.
//
//wormvet:hotpath
func (si *Sim) sameShape(w, t *worm, tKey int64) bool {
	return w.d == t.d && w.l == t.l && w.frontier == t.frontier && w.streak == t.streak &&
		w.status == t.status && w.woken == t.woken && w.stretched == t.stretched &&
		w.parkedAt == t.parkedAt && w.fHead == t.fHead && w.lastInj == t.lastInj &&
		w.blockedOn == t.blockedOn && w.retries == t.retries && si.keyRel(w) == tKey
}

// seal encodes full chunk ci into Sim.sealed and lets the chunk go. The
// template is the first record unless it is the odd one out among the
// first, middle and last, so one unusual record (an abort, a worm woken
// just before it finished) does not make the rest spell out a mask.
//
//wormvet:hotpath
func (si *Sim) seal(ci int) {
	c := si.wormChunks[ci]
	t := &c[0]
	if mid, last := &c[len(c)/2], &c[len(c)-1]; !si.sameShape(mid, t, si.keyRel(t)) && si.sameShape(last, mid, si.keyRel(mid)) {
		t = mid
	}
	ts := si.shapeOf(t)
	b := si.sealScratch[:0]
	for _, v := range ts {
		b = putVarint(b, v)
	}
	prev := int64(0)
	for i := range c {
		w := &c[i]
		rel := int64(w.release)
		same := si.sameShape(w, t, ts[shKey])
		head := zigzag(rel-prev) << 1
		if !same {
			head |= 1
		}
		b = putUvarint(b, head)
		b = putVarint(b, int64(w.injectTime)-rel)
		b = putVarint(b, int64(w.end)-int64(w.injectTime))
		b = putVarint(b, int64(w.stalls))
		b = putVarint(b, int64(w.waitEdge))
		if !same {
			s := si.shapeOf(w)
			var mask uint64
			for f := range s {
				if s[f] != ts[f] {
					mask |= 1 << f
				}
			}
			b = putUvarint(b, mask)
			for f := range s {
				if s[f] != ts[f] {
					b = putVarint(b, s[f]-ts[f])
				}
			}
		}
		prev = rel
	}
	si.chunks[ci].sealed = si.keepSealed(b)
	si.sealScratch = b
	si.wormChunks[ci] = nil
	si.spare = append(si.spare, c)
}

// keepSealed copies a chunk's encoded records into the current block, or
// the next when they do not fit, and returns the copy.
//
//wormvet:hotpath
func (si *Sim) keepSealed(p []byte) []byte {
	n := si.sealedInUse
	if n == 0 || cap(si.sealed[n-1])-len(si.sealed[n-1]) < len(p) {
		if n == len(si.sealed) {
			si.sealed = append(si.sealed, nil)
		}
		if cap(si.sealed[n]) < len(p) {
			si.sealed[n] = make([]byte, 0, max(sealBlock, len(p))) //wormvet:allow hotalloc -- one block per few sealed chunks; Reset keeps them for the next run
		}
		n++
		si.sealedInUse = n
	}
	b := si.sealed[n-1]
	off := len(b)
	b = append(b, p...)
	si.sealed[n-1] = b
	return b[off:len(b):len(b)]
}

//wormvet:nonalloc
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

//wormvet:hotpath
func putUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	b = append(b, byte(v))
	return b
}

//wormvet:hotpath
func putVarint(b []byte, v int64) []byte { return putUvarint(b, zigzag(v)) }

// unsealer decodes one sealed chunk's records in ID order. read decodes a
// record's own fields into rec; next applies them to a worm that keeps the
// chunk's shape between calls, so a record that shares it costs its five
// varints and its key (Snapshot's writeSealed applies them to wire bytes).
type unsealer struct {
	b    []byte
	pos  int   // read cursor in b: an index, not a reslice
	id   int   // the next record's ID
	prev int64 // the previous record's release
	age  bool  // the key's high half is the release (ArbAge)
	odd  bool  // the worm next last wrote holds a shape of its own
	ts   shape
	rec  sealedRec
}

// sealedRec is one sealed record's own fields: its times, key and, when
// odd, the shape it holds instead of the chunk's.
type sealedRec struct {
	key                                    uint64
	release, inject, end, stalls, waitEdge int32
	odd                                    bool
	s                                      shape
}

// unseal starts decoding sealed chunk ci into w, which it gives the
// chunk's shape.
func (si *Sim) unseal(ci int, w *worm) unsealer {
	u := unsealer{b: si.chunks[ci].sealed, id: ci << wormShift, age: si.cfg.Arbitration == ArbAge}
	for f := range u.ts {
		u.ts[f] = u.varint()
	}
	setShape(w, &u.ts)
	w.off = -1
	return u
}

func (u *unsealer) uvarint() uint64 {
	c := u.b[u.pos]
	u.pos++
	if c < 0x80 {
		return uint64(c)
	}
	v := uint64(c & 0x7f)
	for s := uint(7); ; s += 7 {
		c := u.b[u.pos]
		u.pos++
		v |= uint64(c&0x7f) << s
		if c < 0x80 {
			return v
		}
	}
}

func (u *unsealer) varint() int64 { return unzigzag(u.uvarint()) }

func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// read decodes the next record's own fields into u.rec.
func (u *unsealer) read() {
	r := &u.rec
	head := u.uvarint()
	release := u.prev + unzigzag(head>>1)
	inject := release + u.varint()
	end := inject + u.varint()
	r.release, r.inject, r.end = narrow(release), narrow(inject), narrow(end)
	r.stalls = narrow(u.varint())
	r.waitEdge = narrow(u.varint())
	keyRel := u.ts[shKey]
	r.odd = head&1 != 0
	if r.odd {
		r.s = u.ts
		mask := u.uvarint()
		for f := range r.s {
			if mask&(1<<f) != 0 {
				r.s[f] += u.varint()
			}
		}
		keyRel = r.s[shKey]
	}
	hi := keyRel
	if u.age {
		hi += release
	}
	if hi < 0 || hi > math.MaxUint32 {
		panicf("vcsim: sealed record %d has key high half %d", u.id, hi)
	}
	r.key = relKey(int(hi), u.id)
	u.prev = release
	u.id++
}

// next decodes the next record into w, which holds the one before it.
func (u *unsealer) next(w *worm) {
	u.read()
	r := &u.rec
	if r.odd {
		setShape(w, &r.s)
		u.odd = true
	} else if u.odd {
		setShape(w, &u.ts)
		u.odd = false
	}
	w.key = r.key
	w.release, w.injectTime, w.end = r.release, r.inject, r.end
	w.stalls, w.waitEdge = r.stalls, r.waitEdge
}

// setShape writes shape s into w's shape fields; the key is left to the
// caller, which knows the release and ID.
func setShape(w *worm, s *shape) {
	if st := s[shStatus]; st < math.MinInt8 || st > math.MaxInt8 {
		panicf("vcsim: sealed record has status %d", st)
	}
	w.d = narrow(s[shD])
	w.l = narrow(s[shL])
	w.frontier = narrow(s[shFrontier])
	w.streak = narrow(s[shStreak])
	w.status = Status(s[shStatus])
	w.woken = s[shWoken] != 0
	w.stretched = s[shStretched] != 0
	w.parkedAt = narrow(s[shParkedAt])
	w.fHead = narrow(s[shFHead])
	w.lastInj = narrow(s[shLastInj])
	w.blockedOn = narrow(s[shBlockedOn])
	w.retries = narrow(s[shRetries])
}

// narrow is the decoder's one int64 → int32 step. The encoder wrote int32
// values only, so anything wider is a sealing bug, not input.
func narrow(v int64) int32 {
	if v < math.MinInt32 || v > math.MaxInt32 {
		outsideInt32(v)
	}
	return int32(v)
}

// outsideInt32 is narrow's panic, out of line so narrow inlines.
//
//go:noinline
func outsideInt32(v int64) { panicf("vcsim: sealed record holds %d, outside int32", v) }

// chunkLen is how many worms chunk ci holds: all it can, but for the last.
func (si *Sim) chunkLen(ci int) int { return min(1<<wormShift, si.numWorms-ci<<wormShift) }

// records yields every worm record in ID order: a live chunk's in place, a
// sealed chunk's decoded one at a time into one scratch record, valid until
// the next yield. With live set, sealed chunks are skipped — every worm in
// them has finished — for the scans that only look at unfinished worms.
func (si *Sim) records(live bool) iter.Seq2[int, *worm] {
	return func(yield func(int, *worm) bool) {
		var scratch worm
		for ci, c := range si.wormChunks {
			base := ci << wormShift
			if c == nil {
				if live {
					continue
				}
				u := si.unseal(ci, &scratch)
				for i := 0; i < 1<<wormShift; i++ {
					u.next(&scratch)
					if !yield(base+i, &scratch) {
						return
					}
				}
				continue
			}
			for i := range si.chunkLen(ci) {
				if !yield(base+i, &c[i]) {
					return
				}
			}
		}
	}
}
