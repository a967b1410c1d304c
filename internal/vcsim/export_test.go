package vcsim

import "unsafe"

// WormBytes and WormsPerChunk size the external retention test's budget
// (retained_test.go): the record a Sim keeps per message ever injected, and
// how many of them one worm chunk allocation holds.
const (
	WormBytes     = unsafe.Sizeof(worm{})
	WormsPerChunk = 1 << wormShift
)
