// Deadlock: why virtual channels exist in the first place.
//
// The paper opens with the Dally–Seitz observation: wormhole worms that
// wrap around a ring can form a cyclic buffer-wait and freeze the
// network forever. This program makes the freeze visible with space-time
// diagrams on a 6-node ring, then shows the two cures — and why the
// structured one is fundamentally better:
//
//  1. plain ring, B=1: deadlock;
//
//  2. anonymous B=2 buffers: survives light load, deadlocks again when
//     two worm waves fill both slots of every buffer in the cycle;
//
//  3. Dally–Seitz dateline classes (same buffer budget as #2): the
//     channel dependency graph is acyclic, so no load can deadlock it.
//
//     go run ./examples/deadlock
package main

import (
	"fmt"

	"wormhole"
	"wormhole/internal/deadlock"
)

func run(title string, classes, b int, starts []int, render bool) {
	const n = 6
	r := deadlock.NewRing(n, classes)
	set := r.SparseWorkload(starts, n-1, n+2)
	var rec *wormhole.TraceRecorder
	cfg := wormhole.SimConfig{VirtualChannels: b}
	if render {
		rec = wormhole.NewTraceRecorder(set)
		if err := rec.Observe(&cfg); err != nil {
			panic(err)
		}
	}
	res := wormhole.Simulate(set, nil, cfg)
	fmt.Printf("== %s ==\n", title)
	fmt.Printf("dependency acyclic: %v   deadlocked: %v   delivered: %d/%d (steps %d)\n",
		wormhole.DeadlockFree(set), res.Deadlocked, res.Delivered, set.Len(), res.Steps)
	if render && res.Deadlocked {
		fmt.Println("\nfrozen configuration (each worm waits on the next one's buffer):")
		fmt.Print(rec.Render())
	}
	fmt.Println()
}

func main() {
	all := []int{0, 1, 2, 3, 4, 5}
	two := []int{0, 3}
	dbl := append(append([]int{}, all...), all...)

	run("plain ring, two opposed worms, B=1: deadlock", 1, 1, two, true)
	run("anonymous B=2 buffers, same two worms: survives", 1, 2, two, false)
	run("anonymous B=2 buffers, worm per node: deadlocks again", 1, 2, all, false)
	run("dateline classes (same budget), worm per node: immune", 2, 1, all, false)
	run("dateline classes, two worms per node: still immune", 2, 1, dbl, false)

	fmt.Println("counting virtual channels is not enough — structuring them")
	fmt.Println("is what breaks the cycle (Dally–Seitz, and this paper's")
	fmt.Println("starting point: given that VCs are there for deadlock")
	fmt.Println("freedom, how much *speed* do they buy?)")
}
