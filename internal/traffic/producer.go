package traffic

// The arrival producer. An open-loop run's arrival stream — which
// endpoints fire at each step, where each message goes and the route it
// takes — is a pure function of (Config.Seed, endpoint) and never reads
// network state, so Resume computes it on a second goroutine that runs
// ahead of the stepper. The producer fills a small ring of reused chunks
// from its own copy of the injection state. The stepper consumes them in
// step order: it injects each step's messages in endpoint order, then
// commits the endpoints' post-step state to the canonical Runner.sources
// and Runner.inject. So at step r.t the stepper holds exactly the state
// an inline arrival loop would have left there, and snapshots, pauses,
// early stops and results cannot depend on how far ahead the producer
// is. The simulator itself still steps on one goroutine.
//
// A chunk records the state of an endpoint only when its step was not
// quiet (processParams.quietDraws). The stepper keeps each canonical
// source rewound by its quiet draws a step (Runner.source), so a quiet
// step needs no commit at all: a per-step process costs the ring and the
// stepper its arrivals and state changes, not work per endpoint per step.
//
// The producer lives only inside Resume's injection window: every way out
// of it stops the producer and waits for its last word.

import (
	"runtime"
	"sync/atomic"

	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
)

const (
	// ringChunks is the number of chunks passed between the producer and
	// the stepper; the producer's lead is at most that many chunks.
	ringChunks = 4
	// A chunk closes once its messages plus recorded endpoints reach
	// chunkSlots — between two endpoints, so a step that busy spans
	// several chunks — or after chunkSteps steps, at loads so light that
	// no budget fills. The ring is bounded in records, not steps.
	chunkSlots = 256
	chunkSteps = 64
)

// visit is the state of one endpoint after a step that was not quiet at
// it.
type visit struct {
	rng  uint64 // the endpoint's rng state
	next float64
	e    uint32
	on   bool
}

// segment is the part of one step a chunk holds: endpoints [from, to),
// whose messages and visits end at msgs and visits. The step ends in
// this chunk when to is the endpoint count.
type segment struct {
	msgs, visits, from, to uint32
}

// chunk is a run of consecutive segments. Message i's route is
// paths[ends[i-1]:ends[i]] (from 0 for the first).
type chunk struct {
	segs   []segment
	ends   []uint32
	paths  graph.Path
	visits []visit
}

// producer is a Runner's arrival producer, allocated once with the
// Runner: a reused Runner starts and stops it without allocating.
type producer struct {
	// The producer's own copy of Runner.sources and Runner.inject, loaded
	// when it starts, and due[e] = inj[e].next, the earliest step endpoint
	// e can fire: the scan reads this dense array, half the bytes of inj,
	// and touches an endpoint's state only when it is due.
	src []rng.Source
	inj []injector
	due []float64
	// t and e are where the producer's next fill begins: step t, from
	// endpoint e.
	t, e int

	ring [ringChunks]chunk
	// free carries empty chunks to the producer; full carries filled ones
	// to the stepper, in step order, and then one nil, the producer's
	// last word.
	free, full chan *chunk
	body       func() // Runner.produce, bound once: starting it allocates nothing
	stop       atomic.Bool
	panicked   any // what the producer panicked with, published by its nil

	// Stepper side.
	running bool   // the producer has started and its nil is not yet received
	cur     *chunk // the chunk being consumed, nil between chunks
	seg     int    // cur's next segment
}

func newProducer(endpoints int) producer {
	// free can hold every chunk, and full every chunk and the nil, so no
	// send on either ever blocks.
	return producer{
		src:  make([]rng.Source, endpoints),
		inj:  make([]injector, endpoints),
		due:  make([]float64, endpoints),
		free: make(chan *chunk, ringChunks),
		full: make(chan *chunk, ringChunks+1),
	}
}

// startArrivals loads the producer's state from the canonical state of
// step r.t and starts it.
func (r *Runner) startArrivals() {
	p := &r.prod
	copy(p.inj, r.inject)
	for e := range p.inj {
		p.src[e] = r.source(e)
		p.due[e] = p.inj[e].next
	}
	p.t, p.e = r.t, 0
	p.stop.Store(false)
	p.panicked = nil
	p.cur, p.seg = nil, 0
	// Every chunk starts on free, in ring order. The last stop may have
	// left one in the producer's hands, so refill from scratch.
	for len(p.free) > 0 {
		<-p.free
	}
	for i := range p.ring {
		p.free <- &p.ring[i]
	}
	p.running = true
	go p.body()
}

// stopArrivals stops the producer, if it is running, and returns once it
// has sent its nil: it hands back every chunk, so a producer waiting for
// one sees the stop.
func (r *Runner) stopArrivals() {
	p := &r.prod
	if !p.running {
		return
	}
	p.stop.Store(true)
	if p.cur != nil {
		p.free <- p.cur
		p.cur = nil
	}
	for c := range p.full {
		if c == nil {
			break
		}
		p.free <- c
	}
	p.running = false
}

// injectSegment injects the messages of step t's next segment, in
// endpoint order, and commits its endpoints' state, reporting whether the
// step is complete. It hands a chunk back as soon as its last segment is
// consumed, so the producer refills it while the simulator steps.
func (r *Runner) injectSegment(msg *message.Message, t int) (last bool, err error) {
	p := &r.prod
	c := p.cur
	if c == nil {
		if c = <-p.full; c == nil {
			// The producer's nil inside the window: it panicked. Raise
			// the panic here, on the stepper's goroutine.
			p.running = false
			if p.panicked != nil {
				panic(p.panicked)
			}
			panic("traffic: arrival producer stopped inside the injection window")
		}
		p.cur, p.seg = c, 0
	}
	segs, ends, paths := c.segs, c.ends, c.paths
	var m, v uint32
	if p.seg > 0 {
		m, v = segs[p.seg-1].msgs, segs[p.seg-1].visits
	}
	s := segs[p.seg]
	p.seg++
	var from uint32
	if m > 0 {
		from = ends[m-1]
	}
	for ; m < s.msgs; m++ {
		msg.Path = paths[from:ends[m]]
		from = ends[m]
		if _, err := r.sim.Inject(*msg, t); err != nil {
			return false, err
		}
	}
	// Only the recorded endpoints: a quiet one's rewound source already
	// stands for its state after the step.
	for _, vis := range c.visits[v:s.visits] {
		r.inject[vis.e] = injector{next: vis.next, on: vis.on}
		r.setSource(int(vis.e), t+1, vis.rng)
	}
	if p.seg == len(segs) {
		p.free <- c
		p.cur = nil
	}
	return int(s.to) == len(r.inject), nil
}

// produce is the producer goroutine. It fills chunks from step p.t on
// until the injection window ends or the stepper stops it, and always
// ends by sending nil, after recording any panic for the stepper to
// raise.
func (r *Runner) produce() {
	p := &r.prod
	defer func() {
		p.panicked = recover()
		p.full <- nil
	}()
	for {
		var c *chunk
		woke := false
		select {
		case c = <-p.free:
		default:
			c, woke = <-p.free, true
		}
		if p.stop.Load() {
			return
		}
		if woke && r.cfg.OnStep != nil {
			// The hand-back that woke the producer readied it on the
			// stepper's P, and an OnStep hook may yield that P
			// (wormholed's and core's jobs do, every 8 steps) before
			// another P takes the producer. Filling there would make the
			// stepper wait for the chunk, so the producer yields first:
			// the stepper is ahead of it in the global run queue.
			runtime.Gosched()
		}
		r.fill(c)
		p.full <- c
		if p.t >= r.horizon && p.e == 0 {
			return
		}
	}
}

// fill writes arrivals into c from step p.t, endpoint p.e on, and moves
// p.t and p.e past them: always past at least one endpoint, and no
// further than the end of the injection window or the chunk's budget.
// Endpoints are visited in index order (message IDs depend on it);
// skipQuiet runs the ones whose step is quiet, and fill routes and
// records the rest.
//
//wormvet:hotpath
func (r *Runner) fill(c *chunk) {
	p := &r.prod
	cfg := &r.cfg
	route := cfg.Net.AppendRoute
	// The chunk is built in locals and stored once at the end: its
	// headers share cache lines with the chunk the stepper is reading,
	// so an append that wrote them would bounce those lines between the
	// two cores on every record.
	segs, ends, paths, visits := c.segs[:0], c.ends[:0], c.paths[:0], c.visits[:0]
	n := len(p.inj)
	t, e := p.t, p.e
	for {
		first := e
		for {
			var k int
			if e, k = p.skipQuiet(cfg, &r.params, e, t); e == n {
				break
			}
			src, in := &p.src[e], &p.inj[e]
			for ; k > 0; k-- {
				paths = route(paths, e, cfg.dest(e, src)) //wormvet:allow hotalloc -- the Network's router appends into the chunk's reused buffer
				ends = append(ends, uint32(len(paths)))
			}
			visits = append(visits, visit{rng: src.State(), next: in.next, e: uint32(e), on: in.on})
			p.due[e] = in.next
			if e++; len(ends)+len(visits) >= chunkSlots {
				break
			}
		}
		segs = append(segs, segment{msgs: uint32(len(ends)), visits: uint32(len(visits)), from: uint32(first), to: uint32(e)})
		if e < n {
			break // full mid-step: the rest of step t goes in the next chunk
		}
		t, e = t+1, 0
		if t >= r.horizon || len(segs) == chunkSteps || len(ends)+len(visits) >= chunkSlots {
			break
		}
	}
	p.t, p.e = t, e
	c.segs, c.ends, c.paths, c.visits = segs, ends, paths, visits
}

// skipQuiet runs the step-t process of endpoints e, e+1, … and returns
// the first whose step was not quiet, with its arrival count, or the
// endpoint count if the rest of the step is quiet (processParams.
// quietDraws). Only a due endpoint costs more than a compare: at light
// load most Poisson endpoints are between arrivals on most steps. It is
// the loop a quiet endpoint costs, so it keeps few values live across
// the arrivals call, which spills every register that holds one.
//
//wormvet:hotpath
func (p *producer) skipQuiet(cfg *Config, pp *processParams, e, t int) (int, int) {
	inj := p.inj
	srcs, due := p.src[:len(inj)], p.due[:len(inj)]
	end := float64(t + 1)
	for ; e < len(due); e++ {
		if due[e] >= end {
			continue
		}
		in := &inj[e]
		on := in.on
		if k := in.arrivals(cfg, pp, &srcs[e], t); k != 0 || in.on != on {
			return e, k
		}
	}
	return len(due), 0
}
