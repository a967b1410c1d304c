// Package wormhole is a library for analyzing and simulating wormhole
// routing with virtual channels, reproducing Cole, Maggs & Sitaraman,
// "On the Benefit of Supporting Virtual Channels in Wormhole Routers"
// (SPAA 1996; JCSS 62, 2001).
//
// The package re-exports the repository's internal building blocks as one
// coherent public API:
//
//   - networks: butterflies, two-pass butterflies, meshes, toruses,
//     hypercubes, random regular digraphs, and the paper's Theorem 2.2.1
//     adversarial construction;
//   - workloads: permutations, q-relations, random destinations, with
//     congestion/dilation analysis;
//   - the flit-level simulator of the paper's router model (B virtual
//     channels per edge, rigid worms, optional drop-on-delay and
//     restricted-bandwidth variants), with both a batch entry point and
//     an incremental, resumable Sim for streaming workloads;
//   - a steady-state open-loop traffic engine (Bernoulli / Poisson /
//     bursty injection × uniform / transpose / bit-reverse / hotspot
//     patterns, warmup/measurement/drain windows, saturation search);
//   - the Theorem 2.1.6 LLL scheduler and its verification;
//   - the Section 3.1 randomized two-pass butterfly algorithm;
//   - baselines: store-and-forward, virtual cut-through, circuit
//     switching, naive conflict-graph coloring.
//
// Quick start:
//
//	prob := wormhole.ButterflyQRelation(256, 8, 32, 42)
//	res := prob.RouteGreedy(wormhole.GreedyOptions{B: 4})
//	fmt.Println(res.Steps, res.AllDelivered())
//
// The experiment harness behind `wormbench` is exposed through
// RunExperiment; see README.md for the experiment catalogue.
package wormhole

import (
	"context"

	"wormhole/internal/analysis"
	"wormhole/internal/baseline"
	"wormhole/internal/butterfly"
	"wormhole/internal/core"
	"wormhole/internal/graph"
	"wormhole/internal/lowerbound"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/routeopt"
	"wormhole/internal/schedule"
	"wormhole/internal/stats"
	"wormhole/internal/topology"
	"wormhole/internal/trace"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// --- graph substrate ---------------------------------------------------------

// Core graph types.
type (
	// Graph is a directed multigraph of physical channels.
	Graph = graph.Graph
	// NodeID identifies a switch.
	NodeID = graph.NodeID
	// EdgeID identifies a directed physical channel.
	EdgeID = graph.EdgeID
	// Path is a directed walk of edges.
	Path = graph.Path
)

// NewGraph returns an empty graph with capacity hints.
func NewGraph(nodes, edges int) *Graph { return graph.New(nodes, edges) }

// ShortestPath BFS-routes between two nodes.
func ShortestPath(g *Graph, src, dst NodeID) (Path, bool) { return graph.ShortestPath(g, src, dst) }

// --- topologies --------------------------------------------------------------

// Network constructors (paper Section 1.2 and test fixtures).
type (
	// Butterfly is the paper's n-input butterfly network.
	Butterfly = topology.Butterfly
	// TwoPassButterfly is the unrolled back-to-back butterfly of Fig. 2.
	TwoPassButterfly = topology.TwoPassButterfly
	// Mesh is a d-dimensional mesh or torus.
	Mesh = topology.Mesh
	// Hypercube is a boolean hypercube.
	Hypercube = topology.Hypercube
)

// NewButterfly builds an n-input butterfly (n a power of two).
func NewButterfly(n int) *Butterfly { return topology.NewButterfly(n) }

// NewTwoPassButterfly builds the Figure 2 unrolled double butterfly.
func NewTwoPassButterfly(n int) *TwoPassButterfly { return topology.NewTwoPassButterfly(n) }

// NewMesh builds a mesh with the given per-dimension sizes.
func NewMesh(dims ...int) *Mesh { return topology.NewMesh(dims...) }

// NewTorus builds a torus with the given per-dimension sizes.
func NewTorus(dims ...int) *Mesh { return topology.NewTorus(dims...) }

// NewHypercube builds the hypercube on n = 2^k nodes.
func NewHypercube(n int) *Hypercube { return topology.NewHypercube(n) }

// Benes is the rearrangeable Beneš network (two back-to-back
// butterflies); RoutePermutation realizes any permutation as
// edge-disjoint paths via Waksman's looping algorithm.
type Benes = topology.Benes

// NewBenes builds the Beneš network on n = 2^k inputs.
func NewBenes(n int) *Benes { return topology.NewBenes(n) }

// Log2 returns ⌈log2 n⌉ (at least 1), the paper's message-length scale.
func Log2(n int) int { return topology.Log2(n) }

// --- workloads ---------------------------------------------------------------

// Message and workload types.
type (
	// Message is a worm: source, destination, length L, fixed path.
	Message = message.Message
	// MessageID indexes messages within a set.
	MessageID = message.ID
	// MessageSet is a routed workload over one network.
	MessageSet = message.Set
	// Endpoints is a source/destination demand before path selection.
	Endpoints = message.Endpoints
)

// NewMessageSet returns an empty workload over g.
func NewMessageSet(g *Graph) *MessageSet { return message.NewSet(g) }

// Congestion returns C, the maximum per-edge message count.
func Congestion(s *MessageSet) int { return analysis.Congestion(s) }

// Dilation returns D, the longest path length.
func Dilation(s *MessageSet) int { return analysis.Dilation(s) }

// DeadlockFree reports whether the path set's channel dependency graph is
// acyclic (Dally–Seitz condition for greedy wormhole routing).
func DeadlockFree(s *MessageSet) bool { return analysis.ChannelDependencyAcyclic(s) }

// RouteMinMax selects near-shortest paths that avoid hot edges
// (Srinivasan–Teo-style congestion-aware selection).
func RouteMinMax(g *Graph, pairs []Endpoints, length int) *MessageSet {
	return routeopt.GreedyMinMax(g, pairs, length)
}

// Rebalance locally reroutes messages off bottleneck edges until no
// single reroute reduces congestion; it returns the reroute count and
// the final congestion.
func Rebalance(s *MessageSet) (int, int) {
	return routeopt.Rebalance(s)
}

// --- random source -----------------------------------------------------------

// Rand is the deterministic random source used across the library.
type Rand = rng.Source

// NewRand returns a deterministic random source.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// --- simulator ---------------------------------------------------------------

// Simulator types (paper Section 1.1 model).
type (
	// SimConfig parameterizes the flit-level router simulation.
	SimConfig = vcsim.Config
	// SimResult reports a simulation run.
	SimResult = vcsim.Result
	// Policy selects header arbitration.
	Policy = vcsim.Policy
)

// Arbitration policies.
const (
	ArbByID   = vcsim.ArbByID
	ArbRandom = vcsim.ArbRandom
	ArbAge    = vcsim.ArbAge
)

// Simulate runs the message set under per-message release times (nil =
// all zero) on the paper's router model.
func Simulate(s *MessageSet, releases []int, cfg SimConfig) SimResult {
	return vcsim.Run(s, releases, cfg)
}

// Sim is the incremental (resumable) simulation engine underlying
// Simulate: messages are injected while time advances, one flit step at a
// time, which is what open-loop traffic drivers need. See vcsim.Sim for
// the lifecycle.
type Sim = vcsim.Sim

// NewSim returns an empty incremental simulator over g. cfg.MaxSteps must
// be set explicitly (vcsim.ErrNoHorizon otherwise): an open-loop run has
// no finite workload to derive a safe bound from.
func NewSim(g *Graph, cfg SimConfig) (*Sim, error) { return vcsim.NewSim(g, cfg) }

// --- open-loop traffic -------------------------------------------------------

// Open-loop traffic types (steady-state continuous injection; see
// internal/traffic for the window/process/pattern semantics).
type (
	// OpenLoopConfig parameterizes a steady-state open-loop run: network,
	// injection process × spatial pattern, offered rate, and the
	// warmup / measurement / drain windows. A NaN or infinite Rate,
	// OnMean, OffMean or HotspotFraction is a validation error.
	OpenLoopConfig = traffic.Config
	// OpenLoopResult reports accepted throughput and streaming latency
	// statistics (mean, p50/p95/p99) for one open-loop run.
	OpenLoopResult = traffic.Result
	// TrafficNetwork adapts a topology (endpoints, routing) for the
	// open-loop engine. The adapters below compute routes arithmetically
	// and hold no mutable state, so one TrafficNetwork is safe for
	// concurrent use by any number of runs.
	TrafficNetwork = traffic.Network
	// SaturationOptions tunes the saturation-rate bisection.
	SaturationOptions = traffic.SearchOptions
	// SaturationResult reports the located saturation knee and the
	// bisection probes that found it.
	SaturationResult = traffic.SearchResult
)

// Injection processes.
const (
	ProcessBernoulli = traffic.Bernoulli
	ProcessPoisson   = traffic.Poisson
	ProcessOnOff     = traffic.OnOff
)

// Spatial destination patterns.
const (
	PatternUniform    = traffic.Uniform
	PatternTranspose  = traffic.Transpose
	PatternBitReverse = traffic.BitReverse
	PatternHotspot    = traffic.Hotspot
)

// NewButterflyTraffic adapts an n-input butterfly for open-loop traffic.
func NewButterflyTraffic(n int) *TrafficNetwork { return traffic.NewButterflyNet(n) }

// NewMeshTraffic adapts a mesh (dimension-order routed) for open-loop
// traffic.
func NewMeshTraffic(dims ...int) *TrafficNetwork { return traffic.NewMeshNet(dims...) }

// NewTorusTraffic adapts a torus (dimension-order routed) for open-loop
// traffic.
func NewTorusTraffic(dims ...int) *TrafficNetwork { return traffic.NewTorusNet(dims...) }

// RunOpenLoop executes one steady-state open-loop simulation: continuous
// stochastic injection through warmup and measurement windows, then a
// bounded drain. Results are deterministic in OpenLoopConfig.Seed.
func RunOpenLoop(cfg OpenLoopConfig) (OpenLoopResult, error) { return traffic.Run(cfg) }

// SaturationRate bisects the offered load to locate the network's
// saturation knee — the highest rate at which accepted throughput keeps
// up with offered load. The search is deterministic: each probe is a
// pure function of its rate and index, so the result does not depend on
// GOMAXPROCS, although with more than one P the search runs the next
// probe on a second core while the current one runs. OnStep sees only
// the probes run on the caller's goroutine; Metrics receives the Merge of
// every probe's counters.
func SaturationRate(cfg OpenLoopConfig, opts SaturationOptions) (SaturationResult, error) {
	return traffic.SaturationRate(cfg, opts)
}

// TraceRecorder reconstructs flit-level space-time diagrams from a run:
// attach it with rec.Observe(&cfg), run, then call Render.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns a recorder for one run over the message set.
func NewTraceRecorder(s *MessageSet) *TraceRecorder { return trace.NewRecorder(s) }

// --- scheduling (Theorem 2.1.6) ----------------------------------------------

// Scheduler types.
type (
	// Schedule is a Theorem 2.1.6 release schedule.
	Schedule = schedule.Schedule
	// ScheduleBuildOptions tunes the LLL refinement pipeline.
	ScheduleBuildOptions = schedule.Options
)

// BuildSchedule runs the Theorem 2.1.6 color-refinement pipeline.
func BuildSchedule(s *MessageSet, opts ScheduleBuildOptions, r *Rand) (*Schedule, error) {
	return schedule.Build(s, opts, r)
}

// VerifySchedule executes a schedule and checks the zero-stall guarantee.
func VerifySchedule(s *MessageSet, sched *Schedule) (SimResult, error) {
	return schedule.Verify(s, sched)
}

// NaiveSchedule builds the footnote-5 conflict-graph-coloring baseline.
func NaiveSchedule(s *MessageSet) *Schedule { return schedule.NaiveSchedule(s) }

// Closed-form bound evaluators (no hidden constants).
var (
	// UpperBound216 is Theorem 2.1.6: O((L+D)C(D log D)^(1/B)/B).
	UpperBound216 = schedule.UpperBound216
	// LowerBound221 is Theorem 2.2.1: Ω(LCD^(1/B)/B).
	LowerBound221 = schedule.LowerBound221
	// NaiveBound is footnote 5: O((L+D)CD).
	NaiveBound = schedule.NaiveBound
	// StoreAndForwardBound is Leighton–Maggs–Rao: O(L(C+D)).
	StoreAndForwardBound = schedule.StoreAndForwardBound
	// PredictedSpeedup is the paper's superlinear factor B·D^(1−1/B).
	PredictedSpeedup = schedule.PredictedSpeedup
)

// --- problems and experiments --------------------------------------------------

// Problem couples a network and a routed workload (the core facade).
type Problem = core.Problem

// Routing options.
type (
	// GreedyOptions configures online blocking wormhole routing.
	GreedyOptions = core.GreedyOptions
	// ScheduleOptions configures offline Theorem 2.1.6 routing.
	ScheduleOptions = core.ScheduleOptions
)

// NewProblem wraps an existing message set.
func NewProblem(label string, s *MessageSet) *Problem { return core.NewProblem(label, s) }

// ButterflyQRelation builds a random q-relation on an n-input butterfly.
func ButterflyQRelation(n, q, l int, seed uint64) *Problem {
	return core.ButterflyQRelation(n, q, l, seed)
}

// ButterflyRandom builds the random routing problem (q uniform messages
// per input).
func ButterflyRandom(n, q, l int, seed uint64) *Problem {
	return core.ButterflyRandom(n, q, l, seed)
}

// MeshTranspose builds the transpose permutation on a side×side mesh.
func MeshTranspose(side, l int) *Problem { return core.MeshTranspose(side, l) }

// RandomRegularWorkload builds BFS-routed random traffic on a random
// regular digraph.
func RandomRegularWorkload(nodes, deg, msgs, l int, seed uint64) *Problem {
	return core.RandomRegularWorkload(nodes, deg, msgs, l, seed)
}

// ExperimentConfig parameterizes a reproduction experiment.
type ExperimentConfig = core.Config

// ResultTable is an aligned text table of experiment results.
type ResultTable = stats.Table

// RunExperiment executes a README.md-catalogued experiment by ID (F1, F2,
// T1…T12, A1…A5). Set ExperimentConfig.Workers to fan the experiment's
// independent jobs across a worker pool; tables are byte-identical for
// any worker count.
func RunExperiment(id string, cfg ExperimentConfig) ([]*ResultTable, error) {
	return core.Run(context.Background(), id, cfg)
}

// Experiments lists the available experiment IDs and titles.
func Experiments() []core.Experiment { return core.Experiments() }

// --- Theorem 2.2.1 construction ------------------------------------------------

// Adversary types.
type (
	// AdversaryParams sizes the Theorem 2.2.1 instance.
	AdversaryParams = lowerbound.Params
	// Adversary is the built lower-bound instance.
	Adversary = lowerbound.Construction
)

// BuildAdversary constructs the Theorem 2.2.1 network and messages.
func BuildAdversary(p AdversaryParams) *Adversary { return lowerbound.Build(p) }

// --- Section 3 butterfly algorithms --------------------------------------------

// Butterfly-algorithm types.
type (
	// ColPair is an input-column → output-column demand.
	ColPair = butterfly.ColPair
	// QRelationParams configures the Section 3.1 algorithm.
	QRelationParams = butterfly.Params
	// QRelationResult reports a Section 3.1 run.
	QRelationResult = butterfly.Result
)

// RunQRelation executes the Section 3.1 randomized two-pass algorithm.
func RunQRelation(pairs []ColPair, p QRelationParams, r *Rand) QRelationResult {
	return butterfly.RunQRelation(pairs, p, r)
}

// RandomQRelation draws a uniform random q-relation on n columns.
func RandomQRelation(n, q int, r *Rand) []ColPair { return butterfly.RandomQRelation(n, q, r) }

// QRelationBound evaluates the Theorem 3.1.1 running-time form.
var QRelationBound = butterfly.Bound

// --- baselines -----------------------------------------------------------------

// Baseline router types.
type (
	// SAFResult reports a store-and-forward run.
	SAFResult = baseline.SAFResult
	// VCTConfig configures virtual cut-through routing.
	VCTConfig = baseline.VCTConfig
	// VCTResult reports a virtual cut-through run.
	VCTResult = baseline.VCTResult
	// CircuitResult reports a circuit-switching experiment.
	CircuitResult = baseline.CircuitResult
)

// RunStoreAndForward simulates greedy FIFO store-and-forward routing.
func RunStoreAndForward(s *MessageSet) SAFResult {
	return baseline.RunStoreAndForward(s)
}

// LMRSchedule is a certified delay-smoothed store-and-forward schedule
// (Leighton–Maggs–Rao style, O(C+D) message steps).
type LMRSchedule = baseline.LMRSchedule

// BuildLMRSchedule rejection-samples initial delays until no edge is
// double-booked; the result moves every message without stopping.
func BuildLMRSchedule(s *MessageSet, r *Rand) (*LMRSchedule, error) {
	return baseline.BuildLMRSchedule(s, r)
}

// RunVirtualCutThrough simulates cut-through routing with B-flit buffers.
func RunVirtualCutThrough(s *MessageSet, cfg VCTConfig) VCTResult {
	return baseline.RunVirtualCutThrough(s, cfg)
}

// RunCircuitSwitch performs Koch's circuit-locking experiment.
func RunCircuitSwitch(n, b int, pairs []ColPair, r *Rand) CircuitResult {
	return baseline.RunCircuitSwitch(n, b, pairs, r)
}
