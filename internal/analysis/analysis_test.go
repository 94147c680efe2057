package analysis_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestWallclock(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.Wallclock}, "wallclock/...")
}

func TestChargeCheck(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.ChargeCheck}, "chargecheck/...")
}

func TestWakeTag(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.WakeTag}, "waketag/...")
}

func TestTracePure(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.TracePure}, "tracepure/...")
}

func TestTableComplete(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.TableComplete}, "tablecomplete/...")
}

func TestXlateCheck(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.XlateCheck}, "xlatecheck/...")
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.LockOrder}, "lockorder/...")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.HotAlloc}, "hotalloc/...")
}

func TestDirectives(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.All(), "directives/...")
}

// TestAnalyzersDeterministic reloads the interprocedural fixture trees and
// reruns the whole suite many times: Go randomizes map iteration on every
// range, so a fact or finding that depends on visit order shows up as a
// second distinct output within a few loads.
func TestAnalyzersDeterministic(t *testing.T) {
	const loads = 100
	var first string
	for i := 0; i < loads; i++ {
		prog, err := analysis.Load(analysis.LoadConfig{Dir: "testdata/src"},
			"xlatecheck/...", "hotalloc/...", "lockorder/...")
		if err != nil {
			t.Fatalf("loading fixtures: %v", err)
		}
		diags, err := analysis.Run(prog, analysis.All())
		if err != nil {
			t.Fatalf("running suite: %v", err)
		}
		var b strings.Builder
		for _, d := range diags {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
		if i == 0 {
			first = b.String()
		} else if got := b.String(); got != first {
			t.Fatalf("load %d differs from load 0:\n--- load 0\n%s--- load %d\n%s", i, first, i, got)
		}
	}
}

// TestAnalysisSelfCheck pins the analysis machinery itself (and the
// diffcheck oracle it mirrors policy with) to zero findings: the linter
// must hold its own code to the invariants it enforces, and a stale or
// bare allow inside either package would silently weaken every gate.
func TestAnalysisSelfCheck(t *testing.T) {
	prog, err := analysis.Load(analysis.LoadConfig{Dir: "../.."},
		"./internal/analysis/...", "./internal/diffcheck")
	if err != nil {
		t.Fatalf("loading self-check packages: %v", err)
	}
	diags, err := analysis.Run(prog, analysis.All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("self-check finding: %s", d)
	}
}

// TestSuppressionsJustified enforces the //lint:allow policy over the
// real tree mechanically, mirroring diffcheck's
// TestAllowlistEntriesJustified: every directive must use the colon form,
// name an analyzer in the suite, and carry a substantive reason — a
// suppression whose justification fits in a shrug is a blanket exemption.
func TestSuppressionsJustified(t *testing.T) {
	known := map[string]bool{}
	for _, a := range analysis.All() {
		known[a.Name] = true
	}
	colonForm := regexp.MustCompile(`^//lint:allow ([^\s:]+): (.+)$`)
	root := "../.."
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, analysis.DirectivePrefix)
			if idx < 0 {
				continue
			}
			// Skip mentions inside string literals (the parser itself) and
			// inside prose comments — a real directive starts its own
			// comment, so nothing but code and whitespace precedes it.
			dir := line[idx:]
			if strings.Contains(line[:idx], `"`) || strings.Contains(line[:idx], "`") ||
				strings.Contains(line[:idx], "//") {
				continue
			}
			m := colonForm.FindStringSubmatch(dir)
			if m == nil {
				t.Errorf("%s:%d: directive is not colon-form //lint:allow <analyzer>: <reason>: %q", path, i+1, dir)
				continue
			}
			if !known[m[1]] {
				t.Errorf("%s:%d: directive names unknown analyzer %q", path, i+1, m[1])
			}
			if len(m[2]) < 20 {
				t.Errorf("%s:%d: reason %q too thin — justify the suppression (>= 20 chars)", path, i+1, m[2])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking tree: %v", err)
	}
}

// TestTreeIsClean runs the full suite over the real module, pinning the
// repository to zero findings: a regression that reintroduces a wall-clock
// read, an uncharged handler path, a discarded wake tag, an untranslated
// persona payload, an incomplete ABI table, a lock-order violation, or an
// allocation on a //hot:noalloc path fails this test (and `make lint`).
func TestTreeIsClean(t *testing.T) {
	prog, err := analysis.Load(analysis.LoadConfig{Dir: "../.."}, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := analysis.Run(prog, analysis.All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding: %s", d)
	}
}
