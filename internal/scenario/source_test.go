package scenario

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vce/internal/rng"
)

// TestWorkloadSourceRegistry: the source table resolves every kind,
// defaults the empty kind to batch, and rejects unknown kinds with an error
// that enumerates the valid set programmatically.
func TestWorkloadSourceRegistry(t *testing.T) {
	for _, kind := range []string{"", "batch", "poisson", "diurnal", "trace"} {
		src, err := workloadSource(kind)
		if err != nil {
			t.Fatalf("workloadSource(%q): %v", kind, err)
		}
		want := kind
		if want == "" {
			want = "batch"
		}
		if src.Kind() != want {
			t.Errorf("workloadSource(%q).Kind() = %q, want %q", kind, src.Kind(), want)
		}
	}
	_, err := workloadSource("bursty")
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, kind := range ArrivalKinds() {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("error %q does not enumerate kind %q", err, kind)
		}
	}
	if kinds := ArrivalKinds(); !reflect4Equal(kinds, []string{"batch", "poisson", "diurnal", "trace"}) {
		t.Errorf("ArrivalKinds() = %v, want registration order", kinds)
	}
}

func reflect4Equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSourceStreaming: batch/poisson are closed (materialized into the
// cached world); diurnal/trace are open-loop (pumped during simulation).
func TestSourceStreaming(t *testing.T) {
	want := map[string]bool{"batch": false, "poisson": false, "diurnal": true, "trace": true}
	for kind, streaming := range want {
		src, err := workloadSource(kind)
		if err != nil {
			t.Fatal(err)
		}
		if src.Streaming() != streaming {
			t.Errorf("%s.Streaming() = %v, want %v", kind, src.Streaming(), streaming)
		}
	}
}

// TestSourceValidation covers per-kind Validate rejections.
func TestSourceValidation(t *testing.T) {
	cases := []struct {
		name string
		a    ArrivalSpec
		want string
	}{
		{"poisson-no-rate", ArrivalSpec{Kind: "poisson"}, "rate_per_s"},
		{"diurnal-no-rate", ArrivalSpec{Kind: "diurnal", Amplitude: 0.5, PeriodS: 60}, "rate_per_s"},
		{"diurnal-amplitude-high", ArrivalSpec{Kind: "diurnal", RatePerS: 1, Amplitude: 1.5, PeriodS: 60}, "amplitude"},
		{"diurnal-amplitude-negative", ArrivalSpec{Kind: "diurnal", RatePerS: 1, Amplitude: -0.1, PeriodS: 60}, "amplitude"},
		{"diurnal-negative-period", ArrivalSpec{Kind: "diurnal", RatePerS: 1, PeriodS: -5}, "period_s"},
		{"trace-empty", ArrivalSpec{Kind: "trace"}, "trace"},
		{"trace-negative-gap", ArrivalSpec{Kind: "trace", TraceS: []float64{1, -2}}, "negative"},
		{"trace-nan-gap", ArrivalSpec{Kind: "trace", TraceS: []float64{math.NaN()}}, "finite"},
		{"trace-zero-repeat", ArrivalSpec{Kind: "trace", TraceS: []float64{0, 0}, Repeat: true}, "zero"},
	}
	for _, tc := range cases {
		src, err := workloadSource(tc.a.Kind)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		err = src.Validate("spec", tc.a)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
	// And the corresponding accepts.
	for _, a := range []ArrivalSpec{
		{Kind: "poisson", RatePerS: 2},
		{Kind: "diurnal", RatePerS: 2, Amplitude: 0.6, PeriodS: 3600, PhaseS: 10},
		{Kind: "diurnal", RatePerS: 2}, // amplitude 0 degenerates to poisson; period defaulted later
		{Kind: "trace", TraceS: []float64{0, 1.5, 2}, Repeat: true},
		{Kind: "trace", TracePath: "gaps.txt"}, // content checked after inlining
	} {
		src, _ := workloadSource(a.Kind)
		if err := src.Validate("spec", a); err != nil {
			t.Errorf("valid %s spec rejected: %v", a.Kind, err)
		}
	}
}

// TestTraceCursor: the cursor replays gaps cumulatively, ends when the
// trace is exhausted, and tiles it when Repeat is set.
func TestTraceCursor(t *testing.T) {
	src, _ := workloadSource("trace")
	a := ArrivalSpec{Kind: "trace", TraceS: []float64{0, 2, 3}}
	cur := src.Cursor(a, rng.New(1).Derive("arrivals"))
	want := []float64{0, 2, 5}
	for i, w := range want {
		at, ok := cur()
		if !ok || at != time.Duration(w*float64(time.Second)) {
			t.Fatalf("arrival %d = (%v, %v), want (%vs, true)", i, at, ok, w)
		}
	}
	if _, ok := cur(); ok {
		t.Fatal("exhausted non-repeating trace kept producing")
	}

	a.Repeat = true
	cur = src.Cursor(a, rng.New(1).Derive("arrivals"))
	var last time.Duration
	for i := 0; i < 9; i++ {
		at, ok := cur()
		if !ok {
			t.Fatalf("repeating trace ended at arrival %d", i)
		}
		if at < last {
			t.Fatalf("arrival %d = %v went backwards from %v", i, at, last)
		}
		last = at
	}
	// Three full tiles of a 5s-long trace: last arrival at 2·5 + 5 = 15s.
	if want := 15 * time.Second; last != want {
		t.Errorf("ninth tiled arrival = %v, want %v", last, want)
	}
}

// TestDiurnalCursor: arrivals are strictly ordered in time, deterministic
// for a given stream, and rate modulation shows up as more arrivals in the
// peak half-period than the trough half-period.
func TestDiurnalCursor(t *testing.T) {
	src, _ := workloadSource("diurnal")
	// 2000 arrivals at mean rate 5/s span ~400s ≈ 20 periods, enough to see
	// the modulation.
	a := ArrivalSpec{Kind: "diurnal", RatePerS: 5, Amplitude: 0.9, PeriodS: 20}
	draw := func() []time.Duration {
		cur := src.Cursor(a, rng.New(42).Derive("arrivals"))
		var got []time.Duration
		for len(got) < 2000 {
			at, ok := cur()
			if !ok {
				t.Fatal("diurnal cursor ended")
			}
			got = append(got, at)
		}
		return got
	}
	one, two := draw(), draw()
	var peak, trough int
	for i, at := range one {
		if at != two[i] {
			t.Fatalf("arrival %d differs across identical streams: %v vs %v", i, at, two[i])
		}
		if i > 0 && at < one[i-1] {
			t.Fatalf("arrival %d = %v before %v", i, at, one[i-1])
		}
		// Phase 0, period 20s: sin is positive on (0,10), negative on (10,20).
		s := math.Mod(at.Seconds(), 20)
		if s < 10 {
			peak++
		} else if s > 10 {
			trough++
		}
	}
	if peak <= trough {
		t.Errorf("rate modulation invisible: %d arrivals in peak half, %d in trough", peak, trough)
	}
}

// TestInlineTrace: Load inlines trace_path content into trace_s and clears
// the path, so artifacts and cell keys hash the trace content, not a file
// name that may point anywhere tomorrow.
func TestInlineTrace(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "gaps.txt"),
		[]byte("# warm-up\n0\n1.5\n\n2.25\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	sp.Workload.Arrivals = ArrivalSpec{Kind: "trace", TracePath: "gaps.txt", Repeat: true}
	blob, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a := loaded.Workload.Arrivals
	if a.TracePath != "" {
		t.Errorf("trace_path survived inlining: %q", a.TracePath)
	}
	if !reflect4EqualF(a.TraceS, []float64{0, 1.5, 2.25}) {
		t.Errorf("inlined gaps = %v, want [0 1.5 2.25]", a.TraceS)
	}

	// A missing file fails loudly at load time, not at run time.
	sp.Workload.Arrivals = ArrivalSpec{Kind: "trace", TracePath: "no-such.txt"}
	blob, _ = json.Marshal(sp)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("missing trace file loaded")
	}
}

// TestParseTraceCRLF: trace files saved on Windows (CRLF line endings) parse
// identically to LF ones — carriage returns never leak into the numbers or
// defeat the comment/blank-line checks.
func TestParseTraceCRLF(t *testing.T) {
	gaps, err := parseTrace([]byte("# recorded on win32\r\n0.5\r\n\r\n1.5\r\n2.25\r\n"))
	if err != nil {
		t.Fatalf("CRLF trace rejected: %v", err)
	}
	if !reflect4EqualF(gaps, []float64{0.5, 1.5, 2.25}) {
		t.Errorf("CRLF gaps = %v, want [0.5 1.5 2.25]", gaps)
	}
	lf, err := parseTrace([]byte("# recorded on win32\n0.5\n\n1.5\n2.25\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect4EqualF(gaps, lf) {
		t.Errorf("CRLF parse %v differs from LF parse %v", gaps, lf)
	}
}

// TestParseTraceEdgeCases: comment-only and blank-only files fail loudly,
// trailing blank lines are fine, and parse errors report the 1-based line
// number of the offending line, comments and blanks included.
func TestParseTraceEdgeCases(t *testing.T) {
	if _, err := parseTrace([]byte("# only\n# comments\n\n")); err == nil || !strings.Contains(err.Error(), "no arrival gaps") {
		t.Errorf("comment-only trace: err = %v, want 'no arrival gaps'", err)
	}
	gaps, err := parseTrace([]byte("1\n2\n\n\n"))
	if err != nil {
		t.Fatalf("trailing blank lines rejected: %v", err)
	}
	if !reflect4EqualF(gaps, []float64{1, 2}) {
		t.Errorf("gaps = %v, want [1 2]", gaps)
	}
	_, err = parseTrace([]byte("# header\n1\nbogus\n2\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("malformed line: err = %v, want it to name line 3", err)
	}
}

// TestInlineTracePrecedence pins the documented rule: when a spec carries
// both trace_s and trace_path, the inline gaps win and the path is dropped
// without being read. The path here does not exist, so any attempt to read
// it would fail the Load.
func TestInlineTracePrecedence(t *testing.T) {
	dir := t.TempDir()
	sp := testSpec()
	sp.Workload.Arrivals = ArrivalSpec{
		Kind:      "trace",
		TracePath: "does-not-exist.txt",
		TraceS:    []float64{0.25, 1, 2},
	}
	blob, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("inline trace_s should shadow the unreadable path: %v", err)
	}
	a := loaded.Workload.Arrivals
	if a.TracePath != "" {
		t.Errorf("trace_path survived precedence: %q", a.TracePath)
	}
	if !reflect4EqualF(a.TraceS, []float64{0.25, 1, 2}) {
		t.Errorf("inline gaps changed: %v", a.TraceS)
	}
}

// TestDiurnalFullAmplitude: at amplitude 1 the rate touches zero at the
// trough, and Lewis-Shedler thinning with a strict acceptance keeps the
// trough essentially silent — the sequence stays ordered, deterministic, and
// overwhelmingly concentrated away from the zero-rate region.
func TestDiurnalFullAmplitude(t *testing.T) {
	src, _ := workloadSource("diurnal")
	a := ArrivalSpec{Kind: "diurnal", RatePerS: 5, Amplitude: 1, PeriodS: 20}
	cur := src.Cursor(a, rng.New(7).Derive("arrivals"))
	var last time.Duration
	peak, trough := 0, 0
	for i := 0; i < 4000; i++ {
		at, ok := cur()
		if !ok {
			t.Fatal("diurnal cursor ended")
		}
		if at < last {
			t.Fatalf("arrival %d = %v before %v", i, at, last)
		}
		last = at
		// Phase 0, period 20: rate peaks at s=5 and is zero at s=15.
		s := math.Mod(at.Seconds(), 20)
		switch {
		case s >= 4 && s <= 6:
			peak++
		case s >= 14 && s <= 16:
			trough++
		}
	}
	if peak == 0 {
		t.Fatal("no arrivals in the peak window")
	}
	if float64(trough) > 0.05*float64(peak) {
		t.Errorf("zero-rate trough saw %d arrivals vs %d at the peak — thinning is not suppressing the trough", trough, peak)
	}
}

func reflect4EqualF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
