package baseline

import (
	"fmt"

	"wormhole/internal/message"
)

// VCTConfig parameterizes the virtual cut-through simulator.
type VCTConfig struct {
	// BufferFlits is the per-edge buffer capacity in flits. Per the
	// paper's Section 1.4 comparison, the buffer holds flits of a single
	// message only — the same buffer budget as a wormhole router with
	// B = BufferFlits virtual channels, but spent on depth instead of
	// multiplexing. A physical edge also carries BufferFlits flits per
	// flit step: the paper's normalization gives both contenders the same
	// factor-B bandwidth (a flit step moves B flits across a channel).
	BufferFlits int
}

// VCTResult reports a virtual cut-through run.
type VCTResult struct {
	Steps      int
	Delivered  int
	Deadlocked bool
	Truncated  bool
}

// RunVirtualCutThrough simulates cut-through routing with compressible
// worms: a worm's flits pipeline forward, and when the front blocks,
// trailing flits continue into the buffers behind it — up to BufferFlits
// per edge — before the worm stalls. Each edge buffer is owned by one
// message at a time; each physical edge moves at most BufferFlits
// flits per step (several consecutive flits of one worm may cross the
// same link in one step, which is what makes a B-deep buffer behave like
// a worm of L/B superflits — the paper's linear-speedup equivalence).
//
// Messages are processed in ID order each step (FIFO-like arbitration);
// within a message, flits move front-to-back so a flit vacates capacity
// for the one behind it within the same step, exactly as in a cut-through
// pipeline.
func RunVirtualCutThrough(s *message.Set, cfg VCTConfig) VCTResult {
	if cfg.BufferFlits < 1 {
		panic(fmt.Sprintf("baseline: BufferFlits %d < 1", cfg.BufferFlits))
	}
	b := cfg.BufferFlits
	n := s.Len()
	type msgState struct {
		path      []int32
		counts    []int16 // flits buffered at each path index (index i = head of path[i])
		atSource  int     // flits not yet injected
		delivered int
		l, d      int
		done      bool
	}
	ms := make([]msgState, n)
	owner := make([]int32, s.G.NumEdges()) // -1 = free
	for e := range owner {
		owner[e] = -1
	}
	work := 0
	for i := 0; i < n; i++ {
		m := s.Get(message.ID(i))
		p := make([]int32, len(m.Path))
		for j, e := range m.Path {
			p[j] = int32(e)
		}
		ms[i] = msgState{
			path:     p,
			counts:   make([]int16, len(p)),
			atSource: m.Length,
			l:        m.Length,
			d:        len(p),
		}
		work += m.Length + len(p)
	}
	maxSteps := work + n + 16

	used := make(map[int32]int) // flits carried per edge this step

	res := VCTResult{}
	remaining := 0
	for i := range ms {
		if ms[i].d == 0 {
			ms[i].done = true
			res.Delivered++
		} else {
			remaining++
		}
	}

	for step := 0; remaining > 0; step++ {
		if step >= maxSteps {
			res.Truncated = true
			break
		}
		clear(used)
		moved := false
		for i := range ms {
			st := &ms[i]
			if st.done {
				continue
			}
			// Front-to-back: deliver from the highest occupied index,
			// shuffle flits forward, then inject from the source (j=-1).
			for j := st.d - 2; j >= -1; j-- {
				have := 0
				if j >= 0 {
					have = int(st.counts[j])
				} else {
					have = st.atSource
				}
				if have == 0 {
					continue
				}
				nxt := j + 1
				e := st.path[nxt]
				move := b - used[e]
				if move > have {
					move = have
				}
				if move <= 0 {
					continue
				}
				if nxt < st.d-1 {
					// Entering a buffered position: single-owner,
					// capacity-limited.
					if owner[e] >= 0 && owner[e] != int32(i) {
						continue
					}
					if space := b - int(st.counts[nxt]); move > space {
						move = space
					}
					if move <= 0 {
						continue
					}
				}
				used[e] += move
				moved = true
				if j >= 0 {
					st.counts[j] -= int16(move)
					if st.counts[j] == 0 && owner[st.path[j]] == int32(i) {
						owner[st.path[j]] = -1
					}
				} else {
					st.atSource -= move
				}
				if nxt == st.d-1 {
					// Crossing the final edge delivers immediately: the
					// destination removes flits from the network.
					st.delivered += move
				} else {
					if st.counts[nxt] == 0 {
						owner[e] = int32(i)
					}
					st.counts[nxt] += int16(move)
				}
			}
			if st.delivered == st.l {
				st.done = true
				res.Delivered++
				remaining--
				res.Steps = step + 1
			}
		}
		if !moved && remaining > 0 {
			res.Deadlocked = true
			break
		}
	}
	return res
}
