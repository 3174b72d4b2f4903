package scenario_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vce/internal/scenario"
	"vce/internal/scenario/specgen"
)

// corpusDigestSeeds spans the generator widely enough to reach what the two
// goldens never do: DAG workloads (with and without faults), streaming
// sources with checkpoint and adaptive migration, and site topologies.
const corpusDigestSeeds = 500

// TestCorpusDigest runs every generated spec for seeds 1..corpusDigestSeeds
// and folds the JSON of each report into one sha256, pinned beside the
// goldens. Any change to what the engine computes for any of these specs
// moves the digest; regenerate it with -update only for a deliberate
// semantic change (and bump EngineVersion with it):
//
//	go test ./internal/scenario -run TestCorpusDigest -update
func TestCorpusDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 500 generated specs; skipped with -short")
	}
	h := sha256.New()
	for seed := uint64(1); seed <= corpusDigestSeeds; seed++ {
		sp := specgen.Generate(seed, specgen.DefaultCaps())
		rep, err := scenario.RunContext(context.Background(), sp, scenario.Options{Workers: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		h.Write(b)
	}
	got := hex.EncodeToString(h.Sum(nil))
	path := filepath.Join("testdata", "corpus-digest.txt")
	// The -update flag belongs to the package's internal tests (see
	// golden_test.go), which share this test binary.
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing corpus digest (regenerate with -update): %v", err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Errorf("corpus digest drifted: got %s, want %s (regenerate with -update if intended)", got, w)
	}
}
