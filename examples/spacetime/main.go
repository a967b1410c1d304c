// Spacetime: watch worms move, block, share channels, and get dropped.
//
// Renders flit-level space-time diagrams for three tiny scenarios on a
// shared 4-edge path (rows = edges, columns = flit steps, letters =
// worms):
//
//  1. B = 1: the second worm waits for the first worm's tail to clear;
//
//  2. B = 2: both worms pipeline through the same physical edges at
//     once — two flits per edge per step, one per virtual channel;
//
//  3. drop-on-delay: the loser is discarded at its first stall (the
//     Section 3.1 algorithm's discipline).
//
//     go run ./examples/spacetime
package main

import (
	"fmt"

	"wormhole"
)

func buildWorkload() *wormhole.MessageSet {
	const span, l = 4, 3
	g := wormhole.NewGraph(span+1, span)
	prev := g.AddNode("n0")
	for i := 1; i <= span; i++ {
		next := g.AddNode(fmt.Sprintf("n%d", i))
		g.AddEdge(prev, next)
		prev = next
	}
	path, _ := wormhole.ShortestPath(g, 0, wormhole.NodeID(span))
	set := wormhole.NewMessageSet(g)
	set.Add(0, wormhole.NodeID(span), l, path)
	set.Add(0, wormhole.NodeID(span), l, append(wormhole.Path(nil), path...))
	return set
}

func show(title string, cfg wormhole.SimConfig) {
	set := buildWorkload()
	rec := wormhole.NewTraceRecorder(set)
	if err := rec.Observe(&cfg); err != nil {
		panic(err)
	}
	res := wormhole.Simulate(set, nil, cfg)
	fmt.Printf("== %s ==\n", title)
	fmt.Printf("makespan %d flit steps, delivered %d, dropped %d, stalls %d\n\n",
		res.Steps, res.Delivered, res.Dropped, res.TotalStalls)
	fmt.Println(rec.Render())
}

func main() {
	show("one virtual channel: worm b waits for worm a's tail",
		wormhole.SimConfig{VirtualChannels: 1})
	show("two virtual channels: both worms share every physical edge",
		wormhole.SimConfig{VirtualChannels: 2})
	show("drop-on-delay: worm b is discarded at its first stall",
		wormhole.SimConfig{VirtualChannels: 1, DropOnDelay: true})
}
