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
// The Network adapter holds function fields (Source/Dest and the routers)
// and cannot be serialized; the restoring caller supplies an equivalent
// Config. Every numeric schedule-relevant field is digest-verified
// against the snapshot (ErrRunnerSnapshot on mismatch), and the
// embedded simulator snapshot independently verifies the network's edge
// count — but a caller who rebuilds a *different* network with the same
// shape is on their own, exactly as with vcsim.RestoreSim.

import (
	"errors"
	"fmt"
	"io"
	"math"

	"wormhole/internal/fault"
	"wormhole/internal/snap"
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

func writeSketch(w *snap.Writer, sk *Sketch) {
	w.I64sRaw(sk.counts[:])
	w.I64(sk.n)
	w.I64(sk.sum)
	w.I64(int64(sk.min))
	w.I64(int64(sk.max))
}

func readSketch(r *snap.Reader, sk *Sketch) {
	r.I64sInto(sk.counts[:])
	sk.n = r.I64()
	sk.sum = r.I64()
	sk.min = int(r.I64())
	sk.max = int(r.I64())
}

// digest lists every schedule-relevant numeric Config field, in a fixed
// order shared by the snapshot writer and the restore verifier. The
// hook fields (Metrics, Trace, OnStep, Publish, the Network
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
	sw := snap.NewWriter(w)
	sw.Raw([]byte(runnerSnapMagic))
	sw.U64(runnerSnapVersion)
	for _, f := range r.cfg.digest() {
		sw.U64(f.bits)
	}

	sw.U8(uint8(r.phase))
	sw.I64(int64(r.t))
	sw.I64(int64(r.injectSteps))
	sw.F64(r.res.Offered)
	sw.I64(int64(r.res.LastRelease))
	sw.I64(int64(r.res.Tracked))
	sw.I64(int64(r.trackedDone))
	sw.I64(int64(r.deliveredMeasure))
	writeSketch(sw, &r.sketch)
	writeSketch(sw, &r.winSketch)
	sw.I64(r.winDelivered)
	sw.I64(int64(r.winInjBase))
	sw.I64(int64(r.winIndex))
	sw.I64(int64(len(r.windows)))
	for _, ws := range r.windows {
		sw.I64(int64(ws.Index))
		sw.I64(ws.Start)
		sw.I64(ws.End)
		sw.I64(ws.Injected)
		sw.I64(ws.Delivered)
		sw.I64(ws.Backlog)
		sw.F64(ws.LatMean)
		sw.F64(ws.LatP50)
		sw.F64(ws.LatP95)
		sw.F64(ws.LatP99)
		sw.I64(ws.LatMax)
	}
	sw.U64(r.parent.State())
	for i := range r.sources {
		src := r.source(i)
		sw.U64(src.State())
	}
	// Injection-process state: only the evolving state crosses; the OnOff
	// probabilities are derived from cfg.
	for i := range r.inject {
		sw.F64(r.inject[i].next)
		sw.Bool(r.inject[i].on)
	}
	if err := sw.Flush(); err != nil {
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
	sr := snap.NewReader(rd, ErrRunnerSnapshot)
	if !sr.Magic(runnerSnapMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrRunnerSnapshot)
	}
	if v := sr.U64(); sr.Err() == nil && v != runnerSnapVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrRunnerSnapshot, v, runnerSnapVersion)
	}
	for _, f := range cfg.digest() {
		if got := sr.U64(); sr.Err() == nil && got != f.bits {
			return nil, fmt.Errorf("%w: config mismatch on %s (snapshot %#x, config %#x)", ErrRunnerSnapshot, f.name, got, f.bits)
		}
	}

	r.phase = runPhase(sr.U8())
	if sr.Err() == nil && r.phase != phaseInject && r.phase != phaseDrain {
		return nil, fmt.Errorf("%w: phase %d is not an in-progress run", ErrRunnerSnapshot, r.phase)
	}
	r.t = int(sr.I64())
	r.injectSteps = int(sr.I64())
	r.res = Result{
		Offered:     sr.F64(),
		LastRelease: int(sr.I64()),
		Tracked:     int(sr.I64()),
	}
	r.trackedDone = int(sr.I64())
	r.deliveredMeasure = int(sr.I64())
	readSketch(sr, &r.sketch)
	readSketch(sr, &r.winSketch)
	r.winDelivered = sr.I64()
	r.winInjBase = int(sr.I64())
	r.winIndex = int(sr.I64())
	nw := sr.I64()
	if sr.Err() == nil && (nw < 0 || nw > int64(r.winIndex)) {
		return nil, fmt.Errorf("%w: %d windows recorded with window index %d", ErrRunnerSnapshot, nw, r.winIndex)
	}
	for i := int64(0); i < nw && sr.Err() == nil; i++ {
		r.windows = append(r.windows, telemetry.WindowStats{
			Index:     int(sr.I64()),
			Start:     sr.I64(),
			End:       sr.I64(),
			Injected:  sr.I64(),
			Delivered: sr.I64(),
			Backlog:   sr.I64(),
			LatMean:   sr.F64(),
			LatP50:    sr.F64(),
			LatP95:    sr.F64(),
			LatP99:    sr.F64(),
			LatMax:    sr.I64(),
		})
	}
	r.parent.Reseed(sr.U64())
	for i := range r.sources {
		r.sources[i].Reseed(sr.U64())
	}
	for i := range r.inject {
		in := injector{next: sr.F64()}
		if on := sr.Bool(); cfg.Process == OnOff {
			in.on = on
		}
		r.inject[i] = in
		r.setSource(i, r.t, r.sources[i].State())
	}
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	// The embedded simulator snapshot reads on through the same buffer.
	sim, err := vcsim.RestoreSim(cfg.Net.G, simCfg, sr.Rest())
	if err != nil {
		return nil, err
	}
	r.sim = sim
	return r, nil
}
