package traffic

// TestSnapshotWireGolden pins the checkpoint wire formats byte for byte:
// WRUNSNAP v2 with its embedded WORMSNAP v2 stream and metrics-codec v3
// blob, a deep shared-pool WORMSNAP v2 stream, and the WHCKPT01 frame.
// The digests and the blob under testdata/ were recorded from the build
// that preceded internal/snap (the commit whose codecs were three
// hand-rolled reader/writer sets), so a green run proves the shared
// kernel writes and reads what the old code did. They may change only
// together with a format version bump.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"reflect"
	"testing"

	"wormhole/internal/fault"
	"wormhole/internal/snap"
	"wormhole/internal/snap/snaptest"
	"wormhole/internal/telemetry"
	"wormhole/internal/vcsim"
)

const (
	wireGoldenRunner = "fee998cb4b3df2097cd80b7c92304628656e7f929e520193a77bbb8b5f6e51bc"
	wireGoldenDeep   = "c5fb0f697b52543529211c36c16ebbc8d83f1d13f99623855c6f4120c852e1c9"
	wireGoldenSealed = "9e81f820af429364dc7038d5d0a2f72976870842efb19826d6c26ff93bca9cd9"
	wireGoldenBlob   = "testdata/wrunsnap_v2_parent.snap"
)

// wireGoldenCfg is the faulted, telemetry-attached run behind digests
// (a) and (c) and the committed blob.
func wireGoldenCfg() Config {
	cfg := Config{
		Net: NewButterflyNet(8), VirtualChannels: 2, MessageLength: 4, Process: OnOff, Pattern: Hotspot,
		Rate: 0.08, Warmup: 40, Measure: 160, Drain: 400, Window: 50, Seed: 17,
	}
	cfg.Faults = fault.Generate(fault.GenConfig{
		Seed: 23, NumEdges: cfg.Net.G.NumEdges(), Horizon: 120, Rate: 0.3, MeanOutage: 40, Lanes: 1,
	})
	cfg.Retry = vcsim.RetryPolicy{MaxAttempts: 3, Backoff: 8, BackoffCap: 64}
	cfg.Metrics = telemetry.NewMetrics()
	return cfg
}

// pausedAt runs cfg until step at and returns the paused Runner.
func pausedAt(tb testing.TB, cfg Config, at int) *Runner {
	tb.Helper()
	cfg.OnStep = func(step int) error {
		if step == at {
			return errPause
		}
		return nil
	}
	r, err := NewRunner(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := r.Run(); !errors.Is(err, errPause) {
		tb.Fatalf("run did not pause at step %d: %v", at, err)
	}
	return r
}

func TestSnapshotWireGolden(t *testing.T) {
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s moved: SHA-256 %s, recorded %s", what, got, want)
		}
	}

	var runner bytes.Buffer
	if err := pausedAt(t, wireGoldenCfg(), 60).Snapshot(&runner); err != nil {
		t.Fatal(err)
	}
	check("WRUNSNAP v2 (faulted, telemetry attached)", digest(runner.Bytes()), wireGoldenRunner)

	deepCfg := wireGoldenCfg() // less its faults and telemetry, under Bernoulli to uniform destinations
	deepCfg.Process, deepCfg.Pattern, deepCfg.Faults, deepCfg.Retry, deepCfg.Metrics = Bernoulli, Uniform, nil, vcsim.RetryPolicy{}, nil
	deepCfg.LaneDepth, deepCfg.SharedPool, deepCfg.Arbitration = 4, true, vcsim.ArbRandom
	var deep bytes.Buffer
	if err := pausedAt(t, deepCfg, 90).sim.Snapshot(&deep); err != nil {
		t.Fatal(err)
	}
	check("WORMSNAP v2 (deep shared pool)", digest(deep.Bytes()), wireGoldenDeep)

	// Framed the way the daemon does it: streamed straight into the file.
	ckpt := &snaptest.FS{}
	if _, err := snap.WriteFramed(ckpt, "point.snap", pausedAt(t, wireGoldenCfg(), 60).Snapshot); err != nil {
		t.Fatal(err)
	}
	framed, err := ckpt.ReadFile("point.snap")
	if err != nil {
		t.Fatal(err)
	}
	check("WHCKPT01 frame", digest(framed), wireGoldenSealed)

	// The parent-written blob restores on this build and resumes to the
	// uninterrupted run's Result.
	parent, err := os.ReadFile(wireGoldenBlob)
	if err != nil {
		t.Fatal(err)
	}
	check(wireGoldenBlob, digest(parent), wireGoldenRunner)
	want, err := Run(wireGoldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreRunner(wireGoldenCfg(), bytes.NewReader(parent))
	if err != nil {
		t.Fatalf("parent-written blob rejected: %v", err)
	}
	got, err := restored.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("parent-written blob resumed to a different Result\nwant: %+v\n got: %+v", want, got)
	}
}
