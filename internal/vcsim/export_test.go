package vcsim

import "unsafe"

// WormBytes and WormsPerChunk are what the external retention test
// (retained_test.go) reports and paces by: the record a message holds while
// in flight, and how many of them one worm chunk holds.
const (
	WormBytes     = unsafe.Sizeof(worm{})
	WormsPerChunk = 1 << wormShift
)
