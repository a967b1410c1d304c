package traffic

// BenchmarkSnapshot / BenchmarkRestore: codec throughput in MB/s on the
// knee operating point (64-input butterfly, B = 2, L = 6, Poisson 0.30
// per input under ArbAge — the benchmark's knee-rigid / ckpt-long point)
// paused at step 4096, where the snapshot is ≈ 6 MB and ≈ 75 k worm
// records, all but a few hundred of them delivered. "deep" is the same
// run on 4-flit lanes, so in-flight records carry prog arrays.
//
//	go test -run '^$' -bench 'Snapshot|Restore' ./internal/traffic

import (
	"bytes"
	"testing"

	"wormhole/internal/vcsim"
)

func kneeBenchCfg(laneDepth int) Config {
	return Config{
		Net:             NewButterflyNet(64),
		VirtualChannels: 2,
		LaneDepth:       laneDepth,
		MessageLength:   6,
		Arbitration:     vcsim.ArbAge,
		Process:         Poisson,
		Rate:            0.30,
		Pattern:         Uniform,
		Warmup:          2048,
		Measure:         8192,
		Drain:           32768,
		MaxBacklog:      65536,
		Seed:            17,
	}
}

var benchDepths = []struct {
	name  string
	depth int
}{{"rigid", 0}, {"deep", 4}}

func BenchmarkSnapshot(b *testing.B) {
	for _, d := range benchDepths {
		b.Run(d.name, func(b *testing.B) {
			r := pausedAt(b, kneeBenchCfg(d.depth), 4096)
			var buf bytes.Buffer
			if err := r.Snapshot(&buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := r.Snapshot(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRestore(b *testing.B) {
	for _, d := range benchDepths {
		b.Run(d.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := pausedAt(b, kneeBenchCfg(d.depth), 4096).Snapshot(&buf); err != nil {
				b.Fatal(err)
			}
			cfg := kneeBenchCfg(d.depth)
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RestoreRunner(cfg, bytes.NewReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
