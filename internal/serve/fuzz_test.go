package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"dx100/internal/exp"
)

// FuzzSubmitRun feeds arbitrary bodies to the POST /v1/runs decoder,
// the step before any job exists, so it runs no simulation. A body
// never panics it. A refused body maps to 400 or 413. An accepted one
// resolves to a Spec that hashes and lies inside the documented
// bounds.
func FuzzSubmitRun(f *testing.F) {
	for _, tc := range badRuns {
		f.Add(tc.body)
	}
	f.Add(patternExtraKey)
	f.Add(`{"workload":"micro.gather","mode":"dx100","scale":1}`)
	f.Add(`{"workload":"IS","mode":"baseline","scale":64,"overrides":{"cores":8,"instances":8,"llc_bytes":67108864,"tile_elems":32768,"max_cycles":1,"warm_llc":true}}`)
	f.Add(`{"workload":"GZZ","sampling":{"interval":10000,"detail":5000,"warmup":1000}}`)
	def := exp.Default(exp.DX)
	f.Fuzz(func(t *testing.T, body string) {
		spec, status, err := decodeRun(nil, io.NopCloser(strings.NewReader(body)))
		if err != nil {
			if status != http.StatusBadRequest && status != http.StatusRequestEntityTooLarge {
				t.Fatalf("refused with status %d: %v", status, err)
			}
			return
		}
		if _, err := spec.Hash(); err != nil {
			t.Fatalf("accepted spec does not hash: %v", err)
		}
		cfg := spec.Config
		for _, b := range []struct {
			what      string
			v, lo, hi int64
		}{
			{"scale", int64(spec.Scale), 1, maxScale},
			{"max_cycles", int64(cfg.MaxCycles), 1, int64(def.MaxCycles)},
			{"llc_bytes", int64(cfg.LLCBytes), minLLCBytes, maxLLCBytes},
			{"tile_elems", int64(cfg.Accel.Machine.TileElems), minTileElems, maxTileElems},
			{"cores", int64(cfg.Cores), 1, 64},
			{"instances", int64(cfg.Instances), 1, int64(cfg.Cores)},
		} {
			if b.v < b.lo || b.v > b.hi {
				t.Fatalf("accepted %s %d outside [%d, %d]: %s", b.what, b.v, b.lo, b.hi, body)
			}
		}
	})
}
