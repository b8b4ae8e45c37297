package sweep

import (
	"strings"
	"testing"
	"time"

	"pard/internal/metrics"
	"pard/internal/simgpu"
)

// TestEngineCacheIsolation is the engine-removal migration guard. Cache
// dirs written while the classic engine still existed may hold entries
// under |eng=classic keys; those results came from a different
// equal-timestamp event order, so serving one to a lane run would be a
// wrong result, not a fast one. A lane run must never read such an entry,
// and must never overwrite it, whichever of the two reached the cache
// first.
func TestEngineCacheIsolation(t *testing.T) {
	spec := smokeSpec()
	laneKey := "run|" + spec.Key()
	classicKey := strings.Replace(laneKey, "|eng=lane", "|eng=classic", 1)
	if classicKey == laneKey {
		t.Fatalf("lane key %q carries no |eng=lane marker", laneKey)
	}
	// A recognizable stand-in for an entry an older binary computed on the
	// classic engine.
	classic := &simgpu.Result{PolicyName: "classic-era", SimEvents: 424242,
		Collector: metrics.NewCollector(time.Second, 1)}
	isClassic := func(v any) bool {
		r, ok := v.(*simgpu.Result)
		return ok && r.PolicyName == "classic-era" && r.SimEvents == 424242
	}

	for _, classicFirst := range []bool{true, false} {
		name := "lane-then-classic"
		if classicFirst {
			name = "classic-then-lane"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e1 := diskEngine(t, dir, 1)
			if classicFirst {
				e1.Install(classicKey, classic)
			}
			lane, err := e1.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if isClassic(lane) {
				t.Fatal("lane run was served the classic entry")
			}
			if !classicFirst {
				e1.Install(classicKey, classic)
			}

			// A fresh process over the same dir sees both entries intact.
			e2 := diskEngine(t, dir, 1)
			v, ok := e2.Lookup(classicKey)
			if !ok || !isClassic(v) {
				t.Fatalf("classic entry lost or overwritten: %v, %v", ok, v)
			}
			v, ok = e2.Lookup(laneKey)
			if !ok || isClassic(v) {
				t.Fatalf("lane entry missing or replaced by the classic one: %v", ok)
			}
			if again, err := e2.Run(spec); err != nil || again.SimEvents != lane.SimEvents {
				t.Fatalf("lane rerun from disk: %v, %d events, want %d", err, again.SimEvents, lane.SimEvents)
			}
		})
	}
}

// TestTopoCacheIsolation extends the migration contract to the |topo= key
// marker: a spec with a lane-group topology is a distinct grid point from
// the flat spec (mirroring |sh=), in both directions. Note the asymmetry
// with the engine marker: topo entries are bit-identical to flat entries AT
// THE SAME SEED (invariant #5), but the marker changes the derived seed, so
// a cross-served entry would still be a wrong result.
func TestTopoCacheIsolation(t *testing.T) {
	flat := smokeSpec()
	grouped := smokeSpec()
	grouped.Opts.Groups = 2
	flatKey, groupedKey := "run|"+flat.Key(), "run|"+grouped.Key()
	if flatKey == groupedKey {
		t.Fatalf("flat and lane-grouped specs share a cache key: %q", flatKey)
	}

	dirs := []struct {
		name         string
		warm, cold   Spec
		warmK, coldK string
	}{
		{"topo-then-flat", grouped, flat, groupedKey, flatKey},
		{"flat-then-topo", flat, grouped, flatKey, groupedKey},
	}
	for _, d := range dirs {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			e1 := diskEngine(t, dir, 1)
			if _, err := e1.Run(d.warm); err != nil {
				t.Fatal(err)
			}

			e2 := diskEngine(t, dir, 1)
			if _, ok := e2.Lookup(d.warmK); !ok {
				t.Fatalf("%s: populated entry %q not served from disk", d.name, d.warmK)
			}
			if _, ok := e2.Lookup(d.coldK); ok {
				t.Fatalf("%s: entry for %q served across the topology marker (%q)", d.name, d.warmK, d.coldK)
			}
		})
	}
}
