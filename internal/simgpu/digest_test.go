package simgpu

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"pard/internal/pipeline"
	"pard/internal/policy"
	"pard/internal/trace"
)

// singleGroupDigests pins the single-group Result of every (app, policy)
// case below, at every shard count, to the SHA-256 of its gob encoding. The
// digests were taken while a single group still committed control-context
// terminations (failure drops, scale-down drops) immediately inside the
// control event; they now commit at the barrier hook that runs after it.
// The lane-group harness compares deferral with deferral, so this table is
// what shows the one-commit-point engine reproduces the old immediate
// commits byte for byte. Never regenerate it: a moved digest means the
// commit order changed.
var singleGroupDigests = map[string]string{
	"lv/pard":         "402fc879af970b2948b8a38f6c188c398a99db01a1fff0911192f341113c2865",
	"lv/nexus":        "de9f15c9abfced3a102c28eab9ed875152b0e35a142001483f5f4901b959701e",
	"lv/clipper++":    "a6bbde005ebcde040a81883908d2d4c61fa21761a3d3e1febf04ec0c8d1e1e26",
	"lv/naive":        "d1424fceca34cbf0543be9e8971dc0efe843f43217c7f24d1de887425a6bd99b",
	"da/pard":         "e7cc865185eb3fea796f0a954f2ce4ad8938962d850f03872fa71305e6e1c49c",
	"da/nexus":        "471ebebb30b46361de2edaf114211c552bc52b889ab9fb90bd7d266a149e2fbc",
	"da/clipper++":    "71e7454e88c6f4fb0a14b8ee71f7f6f85896dd580fdc08a06efa517999d14b42",
	"da/naive":        "722b0ac54c2fa4eb96824114fd0dfbd1a255ee20d6150da31c0ed8276673c84e",
	"dadyn/pard":      "f0e915dae0bed434569c9e795ce731d9015235ede3036474e3bf3d4500875ec4",
	"dadyn/nexus":     "df9502a49fe9f2ca9e5737af3345191fd81f8145d5640d918037ffb0fdfe33ad",
	"dadyn/clipper++": "552422a4b2e090e63ee19cfa8c32f13d088e718ff72959707fb16382b1265081",
	"dadyn/naive":     "69f7ce2d9298f6831f59a14a669ff8919d07e9be5009c5f71686457a183e069f",
	"tm/pard":         "05f321e33a1b81d0d1f692556462c4698235221c62426125cf7571bb8289cdcc",
	"tm/nexus":        "254d72499979508b4aa6dd86bc236445371f81e82f18acd26872c1a5c42915d6",
	"tm/clipper++":    "20c0d88d8ef0055464569652aee975464f4d9c1e5806e5669d6bffade0dede96",
	"tm/naive":        "954ad71465b140c0628eb1dcaaf17d9633c8c6d1b796e14bd766c6f166e9c806",
}

// digestApps are the chain and DAG pipelines the golden covers.
var digestApps = []struct {
	name string
	spec func() *pipeline.Spec
}{
	{"lv", pipeline.LV},
	{"da", pipeline.DA},
	{"dadyn", func() *pipeline.Spec { return pipeline.DADynamic(0.5) }},
	{"tm", pipeline.TM},
}

// digestConfig is one golden case: a bursty trace with two injected
// failures, autoscaling every second and every probe enabled, so drops
// decided in failure and scaling callbacks, sync-tick probes and the
// decomposition samples all feed the digest.
func digestConfig(spec *pipeline.Spec, pol string, shards int) Config {
	return Config{
		Spec:       spec,
		PolicyName: pol,
		Trace:      trace.MustGenerate(trace.Config{Kind: trace.Tweet, Duration: 8 * time.Second, PeakRate: 160, Seed: 13}),
		Seed:       29,
		SyncPeriod: 250 * time.Millisecond,
		Scaling: ScalingConfig{
			Enabled: true, Period: time.Second, ColdStart: 500 * time.Millisecond,
			Headroom: 1.2, MinWorkers: 1, MaxWorkers: 4,
		},
		Probes: ProbeConfig{QueueDelay: true, LoadFactor: true, Budget: true, Decomposition: true},
		Failures: []Failure{
			{At: 2 * time.Second, Module: 0, Count: 2},
			{At: 5 * time.Second, Module: spec.N() - 1, Count: 1},
		},
		Shards: shards,
	}
}

// TestSingleGroupDigestGolden pins the single-group engine's full Result on
// chain and DAG apps under failures and autoscaling, for several policies
// and shard counts.
func TestSingleGroupDigestGolden(t *testing.T) {
	for _, app := range digestApps {
		for _, pol := range policy.Comparison() {
			for _, shards := range []int{1, 4} {
				key := app.name + "/" + pol
				res, err := Run(digestConfig(app.spec(), pol, shards))
				if err != nil {
					t.Fatalf("%s shards=%d: %v", key, shards, err)
				}
				got := fmt.Sprintf("%x", sha256.Sum256(encodeResult(t, res)))
				if want := singleGroupDigests[key]; got != want {
					t.Errorf("%s shards=%d: result digest %s, want %s", key, shards, got, want)
				}
			}
		}
	}
}
