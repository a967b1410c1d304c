// QRelation: the paper's Section 3.1 algorithm, end to end.
//
// Routes a random q-relation on a 1024-input butterfly with the
// randomized two-pass drop-and-retry algorithm of Theorem 3.1.1, printing
// the per-round trace: copies in flight, colors (subrounds), deliveries,
// and the flit-step cost — then repeats across B to show the superlinear
// payoff.
//
//	go run ./examples/qrelation
package main

import (
	"fmt"

	"wormhole"
)

func main() {
	const (
		n = 1024
		q = 10
	)
	l := wormhole.Log2(n) // the interesting case L = Θ(log n)

	fmt.Printf("q-relation on a %d-input butterfly: q=%d, L=%d\n\n", n, q, l)

	var base float64
	for _, b := range []int{1, 2, 3, 4} {
		r := wormhole.NewRand(7)
		pairs := wormhole.RandomQRelation(n, q, r)
		res := wormhole.RunQRelation(pairs, wormhole.QRelationParams{
			N: n, Q: q, L: l, B: b,
		}, r)

		fmt.Printf("B=%d: delivered %d/%d in %d flit steps (bound shape %.0f)\n",
			b, res.DeliveredMsgs, res.TotalMessages, res.FlitSteps,
			wormhole.QRelationBound(n, q, l, b))
		for _, round := range res.Rounds {
			fmt.Printf("   round %d: %5d copies, Δ=%-4d → %5d new deliveries, %6d flit steps (max/input %d)\n",
				round.Round, round.Copies, round.Colors, round.Delivered,
				round.FlitSteps, round.MaxPerInput)
		}
		if b == 1 {
			base = float64(res.FlitSteps)
		} else {
			sp := base / float64(res.FlitSteps)
			fmt.Printf("   speedup over B=1: %.2fx (%.2fx per channel)\n", sp, sp/float64(b))
		}
		if !res.AllDelivered {
			fmt.Println("   WARNING: some messages undelivered — increase Rounds")
		}
		fmt.Println()
	}
}
