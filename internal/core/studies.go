package core

import (
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// The open-loop studies, T12–T16, as data for the engine in openloop.go.
// README.md carries each study's narrative; a declaration states only
// the question it asks and the property its tests pin.

// T12 — the open-loop restatement of the paper's claim: latency-vs-load
// curves per B on the 64-input butterfly, and the bisected saturation
// rate, which grows faster than linearly in B (the per-channel column
// would be flat if the benefit were linear). Pinned: the rate is
// non-decreasing in B, and the wakeup engine matches the naive scan on
// every load point and bisection.
var t12 = registerStudy(study{
	id:    "T12",
	title: "Open-loop steady state — latency-vs-load curves and saturation rate vs B",
	full: geometry{
		n:       64,
		archs:   archGrid([]int{1, 2, 4, 8}, rigid, static),
		axis:    []float64{0.05, 0.10, 0.15, 0.20, 0.30, 0.45, 0.65, 0.90},
		windows: windows{warmup: 256, measure: 1024, drain: 4096, maxBacklog: 16384},
		search:  traffic.SearchOptions{Hi: 4, Iters: 12},
	},
	quick: geometry{
		n:       16,
		archs:   archGrid([]int{1, 4}, rigid, static),
		axis:    []float64{0.05, 0.20, 0.50},
		windows: windows{warmup: 32, measure: 128, drain: 512, maxBacklog: 2048},
		search:  traffic.SearchOptions{Hi: 2, Iters: 6},
	},
	stride:    1009,
	satStride: 7919,
	curve: tableSpec[row]{
		"T12 — open-loop steady state: latency vs offered load (Poisson, uniform)",
		[]column[row]{colN, colB, colOffered, colAccepted, colMessages,
			colMeanLat, colP50, colP95, colP99, colSaturated},
	},
	sat: tableSpec[row]{
		"T12 — saturation rate vs B (bisection on offered load)",
		[]column[row]{colN, colB, colSatRate, colVsB1, colPerChannel, colProbes},
	},
})

// T13 — buffer architecture: at fixed B, how much of the B-scaling
// benefit can lane depth, or a shared pool of equal total storage, buy
// instead? The d = 1 static rows are T12's router bit-for-bit. Pinned:
// per (B, pool) the saturation rate is non-decreasing in d — a
// like-for-like comparison, because depth never enters the seed.
var t13 = registerStudy(study{
	id:    "T13",
	title: "Buffer architectures — lane depth and shared pools: load curves and saturation",
	full: geometry{
		n:       64,
		archs:   archGrid([]int{2, 4}, []int{1, 2, 4}, static, shared),
		axis:    []float64{0.10, 0.25, 0.40, 0.60, 0.85},
		windows: windows{warmup: 256, measure: 1024, drain: 4096, maxBacklog: 16384},
		search:  traffic.SearchOptions{Hi: 4, Iters: 12},
	},
	quick: geometry{
		n:       16,
		archs:   archGrid([]int{2}, []int{1, 2, 4}, static, shared),
		axis:    []float64{0.10, 0.30},
		windows: windows{warmup: 32, measure: 128, drain: 512, maxBacklog: 2048},
		search:  traffic.SearchOptions{Hi: 2, Iters: 8},
	},
	stride:     2707,
	sharedSeed: 7127,
	curve: tableSpec[row]{
		"T13 — buffer architectures: latency vs offered load (Poisson, uniform)",
		[]column[row]{colN, colB, colD, colPool, colOffered, colAccepted, colMessages,
			colMeanLat, colP95, colP99, colSaturated},
	},
	sat: tableSpec[row]{
		"T13 — saturation rate over (B, lane depth, pool) (bisection on offered load)",
		[]column[row]{colN, colB, colD, colPool, colSatRate, colVsD1, colPerFlitBuffer, colProbes},
	},
})

// T14 — T13's (B, d) question on static lanes at a 256-input butterfly
// (-scale 1024 is the documented offline size; quick drops to n = 64
// whatever the scale). Pinned: the light load point is unsaturated for
// every architecture, and the saturation rate is non-decreasing in d.
var t14 = registerStudy(study{
	id:    "T14",
	title: "Scale study — 256-input butterfly (offline: -scale 1024): load curves and saturation over (B, d)",
	full: geometry{
		n:       256,
		archs:   archGrid([]int{2, 4}, []int{1, 4}, static),
		axis:    []float64{0.10, 0.30, 0.50},
		windows: windows{warmup: 512, measure: 2048, drain: 8192, maxBacklog: 1 << 16},
		search:  traffic.SearchOptions{Hi: 2, Iters: 10},
	},
	quick: geometry{
		n:       64,
		archs:   archGrid([]int{2, 4}, []int{1, 4}, static),
		axis:    []float64{0.10, 0.30},
		windows: windows{warmup: 64, measure: 256, drain: 1024, maxBacklog: 4096},
		search:  traffic.SearchOptions{Hi: 2, Iters: 6},
	},
	minScale: 8,
	stride:   4099,
	curve: tableSpec[row]{
		"T14 — scale study: latency vs offered load on the wide butterfly (Poisson, uniform)",
		[]column[row]{colN, colB, colD, colOffered, colAccepted, colMessages,
			colMeanLat, colP95, colP99, colSaturated},
	},
	sat: tableSpec[row]{
		"T14 — scale study: saturation rate over (B, lane depth) (bisection on offered load)",
		[]column[row]{colN, colB, colD, colSatRate, colVsD1, colProbes},
	},
})

// T15 — the load curve carried across the knee into deep saturation on
// a 1024-input butterfly (-scale 4096 is the offline size), where the
// standing backlog is on the order of a million flits. No bisection
// half: at this scale the curve already brackets the knee. Pinned:
// quick keeps the full network — the scale is the point — and shrinks
// only the grid and the windows.
var t15 = registerStudy(study{
	id:    "T15",
	title: "Scale study — 1024-input butterfly (offline: -scale 4096): load curves across the knee into deep saturation",
	full: geometry{
		n:       1024,
		archs:   archGrid([]int{2, 4}, rigid, static),
		axis:    []float64{0.10, 0.25, 0.40},
		windows: windows{warmup: 256, measure: 1024, drain: 16384, maxBacklog: 1 << 20},
	},
	quick: geometry{
		archs:   archGrid([]int{2}, rigid, static),
		axis:    []float64{0.25, 0.40},
		windows: windows{warmup: 64, measure: 192, drain: 2048, maxBacklog: 1 << 18},
	},
	minScale: 256,
	stride:   8209,
	curve: tableSpec[row]{
		// The title is frozen verbatim: benchmark/'s tables-quick golden
		// digest hashes `wormbench -all -quick -csv` stdout, title lines
		// included. Reword it (the stepper it names is gone) at the next
		// benchmark PR (ROADMAP, frozen-surface shims).
		"T15 — parallel scale study: latency vs offered load on the sharded wide butterfly (Poisson, uniform)",
		[]column[row]{colN, colB, colOffered, colAccepted, colMessages,
			colMeanLat, colP95, colP99, colBacklog, colSaturated},
	},
})

// T16 — graceful degradation: the paper argues virtual channels route
// around blocked resources; how far does the same lane multiplicity
// carry when resources fail? One offered load below the B = 1 knee,
// with a seed-derived outage process killing one lane per afflicted
// edge — the whole link at B = 1, an eighth of it at B = 8. The outage
// sets are nested across fault rates and every rate of one B sees the
// same arrivals. Pinned: accepted throughput is non-increasing in the
// fault rate, and B = 8 retains a larger share of its fault-free
// throughput than B = 1.
var t16 = registerStudy(study{
	id:    "T16",
	title: "Graceful degradation — accepted throughput and p99 vs lane-fault rate across B∈{1,2,4,8} on the 64-input butterfly",
	full: geometry{
		n:          64,
		archs:      archGrid([]int{1, 2, 4, 8}, rigid, static),
		axis:       []float64{0, 0.1, 0.25, 0.5, 1.0},
		windows:    windows{warmup: 128, measure: 768, drain: 1 << 14, maxBacklog: 1 << 16},
		meanOutage: 192,
	},
	quick: geometry{
		n:          64,
		archs:      archGrid([]int{1, 8}, rigid, static),
		axis:       []float64{0, 0.5},
		windows:    windows{warmup: 32, measure: 192, drain: 1 << 12, maxBacklog: 1 << 16},
		meanOutage: 64,
	},
	fixedLoad: 0.04,
	stride:    16411,
	// Messages whose first edge is dead at injection retry with capped
	// exponential backoff in simulated time.
	retry:             vcsim.RetryPolicy{MaxAttempts: 8, Backoff: 16, BackoffCap: 1024},
	latencyIfInjected: true,
	curve: tableSpec[row]{
		"T16 — graceful degradation: accepted throughput and tail latency vs lane-fault rate (64-input butterfly, Poisson uniform, fixed offered load)",
		[]column[row]{colN, colB, colFaultRate, colOutages, colOffered, colAccepted,
			colMessages, colAborted, colMeanLat, colP95, colP99, colBacklog, colSaturated},
	},
})
