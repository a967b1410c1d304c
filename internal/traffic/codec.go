package traffic

// Runner checkpoint codec. Snapshot serializes a paused in-progress run
// — the measurement accumulators, quantile sketches, window series,
// injection-process state, rng sources, and (embedded last) the full
// vcsim state — so RestoreRunner can rebuild a Runner in a fresh
// process whose Resume produces a Result byte-identical to the
// uninterrupted run. Snapshot is legal only while a run is in progress,
// which in practice means from inside Config.OnStep: pause the run by
// returning an error from OnStep, or snapshot and keep going.
//
// The Network adapter holds function fields (Source/Dest/Route) and
// cannot be serialized; the restoring caller supplies an equivalent
// Config. Every numeric schedule-relevant field is digest-verified
// against the snapshot (ErrRunnerSnapshot on mismatch), and the
// embedded simulator snapshot independently verifies the network's edge
// count — but a caller who rebuilds a *different* network with the same
// shape is on their own, exactly as with vcsim.RestoreSim.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"

	"wormhole/internal/fault"
	"wormhole/internal/telemetry"
	"wormhole/internal/vcsim"
)

// runnerSnapVersion v2 added the fault schedule and retry policy to the
// config digest (and rides on the embedded vcsim snapshot's v2 state).
const (
	runnerSnapMagic   = "WRUNSNAP"
	runnerSnapVersion = 2
)

// ErrRunnerSnapshot is wrapped by every RestoreRunner failure that is
// not an I/O error: bad magic or version, a corrupt stream, or a Config
// that does not match the snapshot's digest.
var ErrRunnerSnapshot = errors.New("traffic: bad runner snapshot")

type runnerWriter struct {
	w   *bufio.Writer
	err error
}

func (s *runnerWriter) u8(v uint8) {
	if s.err == nil {
		s.err = s.w.WriteByte(v)
	}
}

func (s *runnerWriter) bool(v bool) {
	if v {
		s.u8(1)
	} else {
		s.u8(0)
	}
}

func (s *runnerWriter) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	if s.err == nil {
		_, s.err = s.w.Write(b[:])
	}
}

func (s *runnerWriter) i64(v int64)   { s.u64(uint64(v)) }
func (s *runnerWriter) f64(v float64) { s.u64(math.Float64bits(v)) }

func (s *runnerWriter) sketch(sk *Sketch) {
	for _, c := range sk.counts {
		s.i64(c)
	}
	s.i64(sk.n)
	s.i64(sk.sum)
	s.i64(int64(sk.min))
	s.i64(int64(sk.max))
}

type runnerReader struct {
	r   *bufio.Reader
	err error
}

func (s *runnerReader) u8() uint8 {
	if s.err != nil {
		return 0
	}
	b, err := s.r.ReadByte()
	if err != nil {
		s.err = fmt.Errorf("%w: %v", ErrRunnerSnapshot, err)
		return 0
	}
	return b
}

func (s *runnerReader) bool() bool { return s.u8() != 0 }

func (s *runnerReader) u64() uint64 {
	var b [8]byte
	if s.err != nil {
		return 0
	}
	if _, err := io.ReadFull(s.r, b[:]); err != nil {
		s.err = fmt.Errorf("%w: %v", ErrRunnerSnapshot, err)
		return 0
	}
	var v uint64
	for i := range b {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func (s *runnerReader) i64() int64   { return int64(s.u64()) }
func (s *runnerReader) f64() float64 { return math.Float64frombits(s.u64()) }

func (s *runnerReader) sketch(sk *Sketch) {
	for i := range sk.counts {
		sk.counts[i] = s.i64()
	}
	sk.n = s.i64()
	sk.sum = s.i64()
	sk.min = int(s.i64())
	sk.max = int(s.i64())
}

// digest lists every schedule-relevant numeric Config field, in a fixed
// order shared by the snapshot writer and the restore verifier. The
// hook fields (Metrics, Trace, OnWindow, OnStep, Publish, the Network
// closures) are absent by design: a restored run may swap them freely.
func (c *Config) digest() []struct {
	name string
	bits uint64
} {
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	return []struct {
		name string
		bits uint64
	}{
		{"Endpoints", uint64(c.Net.Endpoints)},
		{"VirtualChannels", uint64(c.VirtualChannels)},
		{"LaneDepth", uint64(c.LaneDepth)},
		{"SharedPool", b(c.SharedPool)},
		{"MessageLength", uint64(c.MessageLength)},
		{"Arbitration", uint64(c.Arbitration)},
		{"RestrictedBandwidth", b(c.RestrictedBandwidth)},
		{"Process", uint64(c.Process)},
		{"Rate", math.Float64bits(c.Rate)},
		{"OnMean", math.Float64bits(c.OnMean)},
		{"OffMean", math.Float64bits(c.OffMean)},
		{"Pattern", uint64(c.Pattern)},
		{"HotspotCount", uint64(c.HotspotCount)},
		{"HotspotFraction", math.Float64bits(c.HotspotFraction)},
		{"Warmup", uint64(c.Warmup)},
		{"Measure", uint64(c.Measure)},
		{"Drain", uint64(c.Drain)},
		{"MaxBacklog", uint64(c.MaxBacklog)},
		{"Seed", c.Seed},
		{"NaiveScan", b(c.NaiveScan)},
		{"Window", uint64(c.Window)},
		// Fixed-length fault entries (a count and a content hash rather
		// than the variable-length schedule itself) keep the digest the
		// same length for every Config, so reader and writer never walk
		// out of step.
		{"FaultEvents", uint64(len(c.Faults))},
		{"FaultHash", faultHash(c.Faults)},
		{"RetryMax", uint64(c.Retry.MaxAttempts)},
		{"RetryBase", uint64(c.Retry.Backoff)},
		{"RetryCap", uint64(c.Retry.BackoffCap)},
	}
}

// faultHash is a 64-bit FNV-1a over the schedule's events, giving the
// digest a fixed-width stand-in for the schedule's contents. (The
// embedded simulator snapshot verifies the events themselves.)
func faultHash(s fault.Schedule) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	for _, ev := range s {
		mix(uint64(ev.Step))
		mix(uint64(ev.Edge))
		mix(uint64(ev.Kind))
	}
	return h
}

// Snapshot serializes the in-progress run to w. It is an error to call
// with no run in progress (Runner state between runs is fully derived
// from Config; there is nothing to checkpoint).
func (r *Runner) Snapshot(w io.Writer) error {
	if r.phase == phaseIdle {
		return errors.New("traffic: Snapshot with no run in progress")
	}
	sw := &runnerWriter{w: bufio.NewWriter(w)}
	sw.w.WriteString(runnerSnapMagic)
	sw.u64(runnerSnapVersion)
	for _, f := range r.cfg.digest() {
		sw.u64(f.bits)
	}

	sw.u8(uint8(r.phase))
	sw.i64(int64(r.t))
	sw.i64(int64(r.injectSteps))
	sw.f64(r.res.Offered)
	sw.i64(int64(r.res.LastRelease))
	sw.i64(int64(r.res.Tracked))
	sw.i64(int64(r.trackedDone))
	sw.i64(int64(r.deliveredMeasure))
	sw.sketch(&r.sketch)
	sw.sketch(&r.winSketch)
	sw.i64(r.winDelivered)
	sw.i64(int64(r.winInjBase))
	sw.i64(int64(r.winIndex))
	sw.i64(int64(len(r.windows)))
	for _, ws := range r.windows {
		sw.i64(int64(ws.Index))
		sw.i64(ws.Start)
		sw.i64(ws.End)
		sw.i64(ws.Injected)
		sw.i64(ws.Delivered)
		sw.i64(ws.Backlog)
		sw.f64(ws.LatMean)
		sw.f64(ws.LatP50)
		sw.f64(ws.LatP95)
		sw.f64(ws.LatP99)
		sw.i64(ws.LatMax)
	}
	sw.u64(r.parent.State())
	for i := range r.sources {
		sw.u64(r.sources[i].State())
	}
	// Injection-process state. The derived per-step probabilities are
	// recomputed from cfg on restore; only the evolving state crosses.
	for i := range r.inject {
		sw.f64(r.inject[i].next)
		sw.bool(r.inject[i].on)
	}
	if sw.err != nil {
		return sw.err
	}
	if err := sw.w.Flush(); err != nil {
		return err
	}
	// The simulator snapshot goes last, unframed: it carries its own
	// magic and trailer, and nothing follows it.
	return r.sim.Snapshot(w)
}

// RestoreRunner rebuilds a Runner from a Snapshot stream. cfg must
// match the snapshot on every schedule-relevant field (the Network is
// matched by endpoint count here and edge count by the embedded
// simulator snapshot; its closures must be equivalent to the original's
// for the resumed run to mean anything). Resume on the result continues
// the run byte-identically to the uninterrupted original.
func RestoreRunner(cfg Config, rd io.Reader) (*Runner, error) {
	r, simCfg, err := newRunnerShell(cfg)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(rd)
	sr := &runnerReader{r: br}
	var magic [len(runnerSnapMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != runnerSnapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrRunnerSnapshot)
	}
	if v := sr.u64(); sr.err == nil && v != runnerSnapVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrRunnerSnapshot, v, runnerSnapVersion)
	}
	for _, f := range cfg.digest() {
		if got := sr.u64(); sr.err == nil && got != f.bits {
			return nil, fmt.Errorf("%w: config mismatch on %s (snapshot %#x, config %#x)", ErrRunnerSnapshot, f.name, got, f.bits)
		}
	}

	r.phase = runPhase(sr.u8())
	if sr.err == nil && r.phase != phaseInject && r.phase != phaseDrain {
		return nil, fmt.Errorf("%w: phase %d is not an in-progress run", ErrRunnerSnapshot, r.phase)
	}
	r.t = int(sr.i64())
	r.injectSteps = int(sr.i64())
	r.res = Result{
		Offered:     sr.f64(),
		LastRelease: int(sr.i64()),
		Tracked:     int(sr.i64()),
	}
	r.trackedDone = int(sr.i64())
	r.deliveredMeasure = int(sr.i64())
	sr.sketch(&r.sketch)
	sr.sketch(&r.winSketch)
	r.winDelivered = sr.i64()
	r.winInjBase = int(sr.i64())
	r.winIndex = int(sr.i64())
	nw := sr.i64()
	if sr.err == nil && (nw < 0 || nw > int64(r.winIndex)) {
		return nil, fmt.Errorf("%w: %d windows recorded with window index %d", ErrRunnerSnapshot, nw, r.winIndex)
	}
	for i := int64(0); i < nw && sr.err == nil; i++ {
		r.windows = append(r.windows, telemetry.WindowStats{
			Index:     int(sr.i64()),
			Start:     sr.i64(),
			End:       sr.i64(),
			Injected:  sr.i64(),
			Delivered: sr.i64(),
			Backlog:   sr.i64(),
			LatMean:   sr.f64(),
			LatP50:    sr.f64(),
			LatP95:    sr.f64(),
			LatP99:    sr.f64(),
			LatMax:    sr.i64(),
		})
	}
	r.parent.Reseed(sr.u64())
	for i := range r.sources {
		r.sources[i].Reseed(sr.u64())
	}
	on, off := cfg.onOffMeans()
	for i := range r.inject {
		in := injector{r: &r.sources[i], next: sr.f64()}
		osn := sr.bool()
		if cfg.Process == OnOff {
			in.on = osn
			in.pInject = cfg.Rate * (on + off) / on
			in.pExitOn = 1 / on
			in.pExitOff = 1 / off
		}
		r.inject[i] = in
	}
	if sr.err != nil {
		return nil, sr.err
	}
	// The embedded simulator snapshot: read through the same buffered
	// reader (RestoreSim may over-buffer, but nothing follows it).
	sim, err := vcsim.RestoreSim(cfg.Net.G, simCfg, br)
	if err != nil {
		return nil, err
	}
	r.sim = sim
	return r, nil
}
