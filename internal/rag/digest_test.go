package rag

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"testing"
)

// TestResultDigestGolden pins every policy's full Result — counts, per-stage
// drops and every latency sample — to a SHA-256 of its gob encoding, taken
// on the event-heap engine the package ran on before it moved onto the
// lane engine's control lane. The control lane keeps the same tie rule
// (time first, then schedule order), so the outputs must not move by a
// single byte.
func TestResultDigestGolden(t *testing.T) {
	want := map[PolicyKind]string{
		Predict:   "0c0eccddd67158305c88725aa710bd35b06f4ac606fe4bc2c4fad5e66402aa18",
		Reactive:  "3d8fd3ab7eb748e80e7868d51fb7f0d4bb9e75c23870a80c0ad122c452f0e468",
		Proactive: "cd117325a9bf520fef1d1fe632f4ec741ea156979b42c68fd185f84f9973e94b",
		NoDrop:    "a002576e20a7fbc40ccbfac4e84256949be7711f6f02c150fe8f4e0851a3ab69",
	}
	for _, p := range append(Policies(), NoDrop) {
		res, err := Run(DefaultConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(res); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want[p] {
			t.Errorf("%s: result digest %s, want %s", p, got, want[p])
		}
	}
}
