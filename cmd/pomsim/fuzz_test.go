package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// FuzzRunTrace replays arbitrary bytes as a -trace file through the CLI
// path, under a fuzzed registered scheme on 1-4 cores with a 1 MB
// POM-TLB and a few hundred references. run returns nil or an error; it
// never panics, and it never hangs on a trace whose threads leave a core
// without records.
func FuzzRunTrace(f *testing.F) {
	encode := func(recs []trace.Record) []byte {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			f.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	gups, _ := workloads.ByName("gups")
	valid := encode(trace.Collect(gups.Generator(4, 1), 300))
	f.Add(valid, uint8(1), uint8(3))                                            // 4 threads on 4 cores
	f.Add(encode(trace.Collect(gups.Generator(1, 1), 300)), uint8(0), uint8(1)) // 1 thread on 2 cores
	f.Add(encode([]trace.Record{                                                // a 4 KB page inside a mapped 2 MB page
		{VA: 0x4000_0000, Size: addr.Page2M, Gap: 2},
		{VA: 0x4000_1000, Size: addr.Page4K, Gap: 2},
	}), uint8(2), uint8(0))
	f.Add(valid[:len(valid)-7], uint8(4), uint8(3)) // torn mid-record

	modes := core.ModeNames()
	f.Fuzz(func(t *testing.T, data []byte, scheme, cores uint8) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		path := filepath.Join(t.TempDir(), "fuzz.trc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_ = run(context.Background(), []string{"-trace", path,
			"-mode", modes[int(scheme)%len(modes)],
			"-cores", strconv.Itoa(1 + int(cores)%4),
			"-pom-mb", "1", "-warmup", "200", "-refs", "200"}, io.Discard)
	})
}
