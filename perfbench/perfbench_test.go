package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestMain runs the tests from the repository root, as run.sh runs the
// benchmark, and lets the test binary stand in for the benchmark binary
// when untracedRun starts its set-up timing children there.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "--setup-only") {
		if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	if err := os.Chdir(".."); err != nil {
		os.Stderr.WriteString(err.Error() + "\n")
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func testBench(t *testing.T, seed uint64) *bench {
	t.Helper()
	b, err := newBench(seed)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func cloneReference(t *testing.T, r *reference) *reference {
	t.Helper()
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out reference
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestPassesMatchReference checks one untraced and one traced pass of
// every workload against the stored reference: the tree reproduces it,
// and tracing leaves every virtual-time output unchanged.
func TestPassesMatchReference(t *testing.T) {
	b := testBench(t, 1)
	for _, w := range workloadNames {
		for _, tr := range []*tracer{nil, newTracer()} {
			r := b.pass(w, tr)
			if r.failed != 0 || r.ops == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w, tr != nil, r.failed, r.ops, r.problems)
			}
		}
	}
}

// TestReferenceKeepsFailuresByDesign pins the five Fig. 5 cells that
// cannot run on their configuration as reference outputs, not failures.
func TestReferenceKeepsFailuresByDesign(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, c := range ref.Fig5 {
		if c.Failed {
			failed++
		}
	}
	if failed != 5 || len(ref.Fig5) != 96 {
		t.Fatalf("reference has %d failed of %d Fig. 5 cells, want 5 of 96", failed, len(ref.Fig5))
	}
}

// TestPerturbedReferenceFails shows the output check has teeth: a
// reference off by one output drives failed_ops_ratio above 0.
func TestPerturbedReferenceFails(t *testing.T) {
	b := testBench(t, 1)
	good := b.ref
	perturb := []struct {
		name     string
		workload string
		edit     func(*reference)
		want     int
	}{
		{"fig5 latency", fig5Workload, func(r *reference) { r.Fig5[7].LatencyNS++ }, 1},
		{"fig5 failure by design", fig5Workload, func(r *reference) {
			for i := range r.Fig5 {
				if r.Fig5[i].Failed {
					r.Fig5[i].Failed = false
					return
				}
			}
		}, 1},
		{"fig6 score", fig6Workload, func(r *reference) {
			r.Fig6[3].Score = math.Nextafter(r.Fig6[3].Score, math.Inf(1))
		}, 1},
		{"soak digest", harnessWorkload, func(r *reference) { r.Soak[0].Digest ^= 1 }, good.Soak[0].Cells},
	}
	for _, p := range perturb {
		b.ref = cloneReference(t, good)
		p.edit(b.ref)
		var tl tally
		tl.record(b.pass(p.workload, nil))
		res := tl.result(nil, t.Logf)
		if tl.failed != p.want || res.Correct {
			t.Errorf("%s: %d of %d operations failed, want %d", p.name, tl.failed, tl.attempted, p.want)
		}
		if ratio(float64(res.Failed), float64(res.Attempted)) <= 0 {
			t.Errorf("%s: failed_ops_ratio is not above 0", p.name)
		}
	}
}

// TestCountsCrossCheck pins one traced pass's exact counts to the figures
// cmd/simbench reports, and checks they repeat on a second pass.
func TestCountsCrossCheck(t *testing.T) {
	b := testBench(t, 1)
	want := map[string]map[string]uint64{
		fig5Workload: {"syscalls": 10488, "sim.sched_events": 26592},
		fig6Workload: {"syscalls": 89526, "diplomat.calls": 44651},
	}
	for _, w := range workloadNames {
		first := b.pass(w, newTracer()).counts
		second := b.pass(w, newTracer()).counts
		if !first.equal(second) {
			t.Errorf("%s: counts differ between passes:\n%v\n%v", w, first, second)
		}
		for name, n := range want[w] {
			got := first[name]
			if name == "syscalls" {
				got = first.syscalls()
			}
			if got != n {
				t.Errorf("%s: %s = %d, want %d", w, name, got, n)
			}
		}
	}
}

// TestSecondSeedHasNoDivergences runs the diffcheck window at a seed that
// was not used while the benchmark was built: no unallowlisted divergence,
// and the same outputs on a second pass.
func TestSecondSeedHasNoDivergences(t *testing.T) {
	b := testBench(t, 7919)
	for i := 0; i < 2; i++ {
		if r := b.pass(harnessWorkload, nil); r.failed != 0 {
			t.Fatalf("pass %d: %d of %d operations failed: %v", i, r.failed, r.ops, r.problems)
		}
	}
}

// TestSeedSelectsOnlyTheDiffcheckWindow checks that --seed moves the
// diffcheck window and leaves the fixed batteries' inputs alone.
func TestSeedSelectsOnlyTheDiffcheckWindow(t *testing.T) {
	a, b := testBench(t, 1), testBench(t, 1000)
	if a.seeds[0] != 1 || b.seeds[0] != 1000 || len(b.seeds) != diffcheckWindow {
		t.Fatalf("windows %v and %v", a.seeds, b.seeds)
	}
	if len(a.soakTests) != len(b.soakTests) || a.artifact.Digest != b.artifact.Digest {
		t.Fatal("seed changed a fixed input")
	}
}

type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// runResult runs the benchmark command for one second and returns its
// result line and the metrics BENCHMARK.json names for that mode.
func runResult(t *testing.T, trace string) (result, map[string]string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", fig6Workload, "--seed", "3", "--seconds", "1", "--trace", trace}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	list := spec.EndToEnd
	if trace == "1" {
		list = spec.PerLayer
	}
	for _, m := range list {
		want[m.Name] = m.Unit
	}
	return res, want
}

func checkMetrics(t *testing.T, res result, want map[string]string, positive bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		case positive && m.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", name, m.Value)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
}

// TestEndToEndResultLine checks an untraced run prints exactly the
// end-to-end metrics of BENCHMARK.json, with their units, all above 0.
func TestEndToEndResultLine(t *testing.T) {
	res, want := runResult(t, "0")
	checkMetrics(t, res, want, true)
}

// TestPerLayerResultLine checks a traced run prints exactly the
// per-layer metrics of BENCHMARK.json, with their units.
func TestPerLayerResultLine(t *testing.T) {
	res, want := runResult(t, "1")
	checkMetrics(t, res, want, false)
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 40; i++ {
		xs = append(xs, float64(i))
	}
	if v, p := tail(xs); v != 30 || p != 75 {
		t.Errorf("tail of 1..40 = %v at p%v, want 30 at p75", v, p)
	}
	if v, p := tail(xs[:5]); v != 5 || p != 100 {
		t.Errorf("tail of 1..5 = %v at p%v, want 5 at p100", v, p)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
