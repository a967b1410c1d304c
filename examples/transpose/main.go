// Transpose: the classic mesh hotspot, routed three ways.
//
// A 16×16 mesh carries the matrix-transpose permutation on dimension-order
// routes — the diagonal concentrates traffic, which is exactly where
// buffer architecture matters. The program compares, at equal per-edge
// buffer budget:
//
//   - wormhole routing with B virtual channels (the paper's subject),
//
//   - virtual cut-through with a single B-flit buffer (Section 1.4's
//     linear-speedup contender),
//
//   - store-and-forward routing (fast, but needs whole-message buffers).
//
//     go run ./examples/transpose
package main

import (
	"fmt"

	"wormhole"
)

func main() {
	const (
		side = 16
		l    = 24 // flits per message
	)
	prob := wormhole.MeshTranspose(side, l)
	fmt.Printf("workload: %s — C=%d D=%d L=%d, %d messages\n\n",
		prob.Label, prob.C, prob.D, prob.L, prob.Set.Len())

	if !wormhole.DeadlockFree(prob.Set) {
		panic("dimension-order transpose routes must be deadlock-free")
	}

	fmt.Println("router                     buf(flits)  flit-steps")
	for _, b := range []int{1, 2, 4, 8} {
		res := prob.RouteGreedy(wormhole.GreedyOptions{B: b, Policy: wormhole.ArbAge})
		if !res.AllDelivered() {
			panic(fmt.Sprintf("wormhole B=%d undelivered", b))
		}
		fmt.Printf("wormhole B=%-2d              %-11d %d\n", b, b, res.Steps)
	}
	for _, b := range []int{2, 4, 8} {
		res := wormhole.RunVirtualCutThrough(prob.Set, wormhole.VCTConfig{BufferFlits: b})
		if res.Deadlocked || res.Delivered != prob.Set.Len() {
			panic(fmt.Sprintf("VCT buf=%d failed", b))
		}
		fmt.Printf("virtual cut-through buf=%-2d %-11d %d\n", b, b, res.Steps)
	}
	saf := wormhole.RunStoreAndForward(prob.Set)
	fmt.Printf("store-and-forward          %-11d %d\n", saf.MaxQueue*l, saf.FlitSteps)

	fmt.Println("\nOn this benign workload the two buffer organizations track each")
	fmt.Println("other (both gain ≈ linearly), while store-and-forward needs a")
	fmt.Println("whole-message buffer per switch to compete. The separation the")
	fmt.Println("paper proves — virtual channels gaining B·D^(1-1/B) where depth")
	fmt.Println("gains only B — appears on adversarial traffic: run")
	fmt.Println("examples/adversary to see it.")
}
