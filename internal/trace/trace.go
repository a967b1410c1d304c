// Package trace reconstructs flit-level space-time diagrams from
// simulator runs. It exists for debugging, teaching, and the examples:
// a rendered diagram makes blocking, virtual-channel sharing, and
// drop-on-delay visually obvious on small instances.
//
// Usage:
//
//	rec := trace.NewRecorder(set)
//	cfg := vcsim.Config{VirtualChannels: 1}
//	if err := rec.Observe(&cfg); err != nil { ... }
//	vcsim.Run(set, nil, cfg)
//	fmt.Println(rec.Render())
//
// The diagram has one row per network edge (in first-use order) and one
// column per flit step; a cell shows which worm's flit sits in that
// edge's buffer at that time ('.' = empty, digits 2-9 = that many worms
// sharing the buffer through distinct virtual channels).
package trace

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/telemetry"
	"wormhole/internal/vcsim"
)

// ErrDeepRun is returned by Observe for deep-engine configurations
// (LaneDepth > 1 or SharedPool): the recorder's reconstruction assumes
// rigid worms, whose full flit configuration is determined by the frontier
// alone. A deep worm compresses — its flits pile up at non-consecutive
// progress values, and a deep advance event carries the head position only
// — so the diagram would silently show flits on edges they never occupied.
// Read the event stream itself (wormtrace -format chrome) for deep runs.
var ErrDeepRun = errors.New("trace: Recorder cannot reconstruct deep-engine runs (LaneDepth > 1 or SharedPool); use the telemetry event stream instead")

// Recorder reconstructs per-step buffer occupancy from a run's
// telemetry event stream. Because worms are rigid, a worm's full flit
// configuration at any time is determined by its frontier, so the
// (time, frontier) pairs of its advance events suffice. That assumption
// is exactly the rigid engine's; attach the recorder through Observe,
// which rejects deep-engine configurations with ErrDeepRun.
type Recorder struct {
	set  *message.Set
	ring *telemetry.Trace // the run's event stream, set by Observe
	// What the first query folds out of ring: the times at which each
	// message advanced, its drop or deliver event (Kind 0 while in
	// flight), and the last of those times.
	advances [][]int32
	ends     []telemetry.Event
	lastTime int
}

// NewRecorder returns a recorder for runs over the given message set.
// The same recorder must not be reused across runs.
func NewRecorder(set *message.Set) *Recorder { return &Recorder{set: set} }

// Observe attaches the recorder to cfg's event stream: a ring the caller
// set as cfg.Trace is kept, otherwise one sized for the message set is
// installed. Deep-engine configurations (LaneDepth > 1 or SharedPool) are
// rejected with ErrDeepRun and cfg is left untouched. Query the recorder
// once the run has finished; the first query reads the ring.
func (r *Recorder) Observe(cfg *vcsim.Config) error {
	if cfg.LaneDepth > 1 || cfg.SharedPool {
		return ErrDeepRun
	}
	if cfg.Trace == nil {
		// Σ(D+L) bounds the advance events; 4× covers the inject/park/
		// wake/credit envelope on the small instances a diagram is for.
		capacity := 1024
		for _, m := range r.set.Msgs {
			capacity += 4 * (len(m.Path) + m.Length)
		}
		cfg.Trace = telemetry.NewTrace(capacity)
	}
	r.ring = cfg.Trace
	return nil
}

// fold reads the observed ring, once. Only advance, drop and deliver
// events shape a diagram; every other kind is skipped, time included — a
// deadlocked ring parks after its last advance, and that must not widen
// the picture.
func (r *Recorder) fold() {
	if r.advances != nil {
		return
	}
	r.advances = make([][]int32, r.set.Len())
	r.ends = make([]telemetry.Event, r.set.Len())
	if r.ring == nil {
		return // never attached: an empty diagram
	}
	for _, ev := range r.ring.Events() {
		switch ev.Kind {
		case telemetry.EvAdvance: // in increasing time order
			r.advances[ev.Msg] = append(r.advances[ev.Msg], ev.Time)
		case telemetry.EvDrop, telemetry.EvDeliver:
			r.ends[ev.Msg] = ev
		default:
			continue
		}
		r.lastTime = max(r.lastTime, int(ev.Time))
	}
}

// Steps returns the time of the last advance, drop or delivery.
func (r *Recorder) Steps() int {
	r.fold()
	return r.lastTime
}

// frontierAt returns how many edges msg's header had crossed at time t,
// or -1 if the worm was already dropped.
func (r *Recorder) frontierAt(msg message.ID, t int) int {
	r.fold()
	if end := r.ends[msg]; end.Kind == telemetry.EvDrop && t >= int(end.Time) {
		return -1
	}
	adv := r.advances[msg]
	return sort.Search(len(adv), func(i int) bool { return int(adv[i]) > t })
}

// occupied returns the stretch of msg's path whose buffers hold its flits
// at time t: path indices f−L..f−1 for frontier f, clipped to the path
// and to its last buffered edge (the final edge delivers, it has none).
func (r *Recorder) occupied(msg message.ID, t int) graph.Path {
	f := r.frontierAt(msg, t)
	if f <= 0 {
		return nil
	}
	m := r.set.Get(msg)
	lo, hi := max(f-m.Length, 0), min(f-1, len(m.Path)-2)
	if lo > hi {
		return nil
	}
	return m.Path[lo : hi+1]
}

// OccupancyAt returns, for every edge holding at least one flit at time
// t, the IDs of the messages buffered there.
func (r *Recorder) OccupancyAt(t int) map[graph.EdgeID][]message.ID {
	occ := make(map[graph.EdgeID][]message.ID)
	for i := 0; i < r.set.Len(); i++ {
		id := message.ID(i)
		for _, e := range r.occupied(id, t) {
			occ[e] = append(occ[e], id)
		}
	}
	return occ
}

// Render draws the space-time diagram. Rows are edges in first-use order
// across all message paths; columns are flit steps 0..Steps(). Rendering
// is intended for small instances; above maxCells cells it degrades to a
// summary line, and so does a ring that overwrote its oldest events: a
// diagram missing early advances would be silently wrong.
func (r *Recorder) Render() string {
	const maxCells = 200000
	edges, labels := r.edgeRows()
	steps := r.Steps()
	if r.ring != nil && r.ring.Dropped() != 0 {
		return fmt.Sprintf("trace: event ring overflowed (%d events lost) — attach a larger telemetry.Trace\n", r.ring.Dropped())
	}
	if len(edges)*(steps+1) > maxCells {
		return fmt.Sprintf("trace: %d edges × %d steps — too large to render\n", len(edges), steps+1)
	}
	var b strings.Builder
	width := 0
	for _, l := range labels {
		if len(l) > width {
			width = len(l)
		}
	}
	fmt.Fprintf(&b, "%*s  time 0..%d (one column per flit step)\n", width, "", steps)
	for i, e := range edges {
		fmt.Fprintf(&b, "%-*s  ", width, labels[i])
		for t := 0; t <= steps; t++ {
			b.WriteByte(r.cellAt(e, t))
		}
		b.WriteByte('\n')
	}
	b.WriteString(r.legend())
	return b.String()
}

// cellAt renders one (edge, time) cell.
func (r *Recorder) cellAt(e graph.EdgeID, t int) byte {
	var owners []message.ID
	for i := 0; i < r.set.Len(); i++ {
		id := message.ID(i)
		if slices.Contains(r.occupied(id, t), e) {
			owners = append(owners, id)
		}
	}
	switch {
	case len(owners) == 0:
		return '.'
	case len(owners) == 1:
		return msgChar(owners[0])
	case len(owners) <= 9:
		return byte('0' + len(owners))
	default:
		return '#'
	}
}

// msgChar maps a message ID to a stable display character.
func msgChar(id message.ID) byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	return alphabet[int(id)%len(alphabet)]
}

// edgeRows returns the edges used by any path, in first-use order, with
// labels "tail→head".
func (r *Recorder) edgeRows() ([]graph.EdgeID, []string) {
	var edges []graph.EdgeID
	seen := make(map[graph.EdgeID]bool)
	for i := 0; i < r.set.Len(); i++ {
		for _, e := range r.set.Get(message.ID(i)).Path {
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
	}
	labels := make([]string, len(edges))
	for i, e := range edges {
		ed := r.set.G.Edge(e)
		tl := r.set.G.Label(ed.Tail)
		hl := r.set.G.Label(ed.Head)
		if tl == "" {
			tl = fmt.Sprint(ed.Tail)
		}
		if hl == "" {
			hl = fmt.Sprint(ed.Head)
		}
		labels[i] = tl + ">" + hl
	}
	return edges, labels
}

// legend summarizes message fates under the diagram.
func (r *Recorder) legend() string {
	var b strings.Builder
	b.WriteString("worms: ")
	for i := 0; i < r.set.Len(); i++ {
		id := message.ID(i)
		fate := "in flight"
		switch end := r.ends[id]; end.Kind {
		case telemetry.EvDeliver:
			fate = fmt.Sprintf("delivered@%d", end.Time)
		case telemetry.EvDrop:
			fate = fmt.Sprintf("dropped@%d", end.Time)
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%c=%d(%s)", msgChar(id), i, fate)
	}
	b.WriteByte('\n')
	return b.String()
}
