package main

import (
	"reflect"
	"testing"
	"time"

	"repro/pkg/loadshed"
)

// TestWorkerShardBuiltFromSpec: a worker's engine is built from the
// ShardSpec that travels in its checkpoints, so for every flag
// combination the spec must describe the engine the flags ask for —
// bin for bin what engineConfig (every other mode's path) builds.
func TestWorkerShardBuiltFromSpec(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		scheme               string
		full, custom, detect bool
	}{
		{"default", "predictive", false, true, false},
		{"-full", "predictive", true, true, false},
		{"-custom=false -detect", "predictive", false, false, true},
		{"-scheme reactive", "reactive", false, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 1
			eng := engineOpts{seed: seed, schemeName: tc.scheme, full: tc.full, customOn: tc.custom, detectOn: tc.detect, workers: 1}
			var err error
			if eng.scheme, err = loadshed.ParseScheme(tc.scheme); err != nil {
				t.Fatal(err)
			}
			if eng.strategy, err = loadshed.StrategyByName("mmfs_pkt"); err != nil {
				t.Fatal(err)
			}
			cfg, err := loadshed.PresetConfig("cesca2", seed, 5*time.Second, 0.1) // 50 bins
			if err != nil {
				t.Fatal(err)
			}
			src := loadshed.NewGenerator(cfg)
			ovh, demand := loadshed.MeasureLoad(src, eng.queries(), seed+1)
			capacity := ovh + demand/2

			want := loadshed.New(engineConfig(eng, capacity), eng.queries()).Run(src)

			o := workerOpts{serveOpts: serveOpts{engineOpts: eng}}
			spec := o.shardSpec(capacity)
			sys, err := spec.NewSystem()
			if err != nil {
				t.Fatalf("spec system: %v", err)
			}
			got := sys.Run(src)
			if len(got.Bins) != 50 || !reflect.DeepEqual(got.Bins, want.Bins) || !reflect.DeepEqual(got.Intervals, want.Intervals) {
				t.Fatalf("the spec-built engine's %d bins and %d intervals are not the flag-built engine's (%d, %d)",
					len(got.Bins), len(got.Intervals), len(want.Bins), len(want.Intervals))
			}
		})
	}
}
