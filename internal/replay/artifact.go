package replay

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/fault"
)

// ArtifactVersion is the current artifact format version.
const ArtifactVersion = 1

// Artifact kinds.
const (
	// KindSoak replays one soak cell (a benchmark or mach-IPC cell under
	// a fault schedule).
	KindSoak = "soak"
	// KindDiffcheck replays one diffcheck seed (the same generated
	// program under both personas).
	KindDiffcheck = "diffcheck"
)

// CellRef identifies one soak cell within a schedule.
type CellRef struct {
	// Bench is the battery: "lmbench", "passmark", or "mach".
	Bench string `json:"bench"`
	// Test is the benchmark test name (empty for the mach cell).
	Test string `json:"test,omitempty"`
	// Config is the configuration name (empty for the mach cell).
	Config string `json:"config,omitempty"`
}

func (c CellRef) String() string {
	s := c.Bench
	if c.Config != "" {
		s += "/" + c.Config
	}
	if c.Test != "" {
		s += "/" + c.Test
	}
	return s
}

// Artifact is a self-contained, one-command repro of a single cell
// execution: everything the run depended on (fault plan, cell identity,
// explore provenance, scheduler choice log) plus the digest the run
// produced. `cider replay <artifact>` re-executes the cell in isolation
// and asserts digest equality.
type Artifact struct {
	// Version is the artifact format version (ArtifactVersion).
	Version int `json:"version"`
	// Kind is KindSoak or KindDiffcheck.
	Kind string `json:"kind"`

	// Schedule is the soak schedule name (KindSoak).
	Schedule string `json:"schedule,omitempty"`
	// Plan is the exact fault plan the run used (KindSoak; diffcheck
	// plans are derived from Seed).
	Plan *fault.Plan `json:"plan,omitempty"`
	// Services marks a soak cell booted with the service tree.
	Services bool `json:"services,omitempty"`
	// Pressure marks a soak cell booted with the memory-balloon workloads.
	Pressure bool `json:"pressure,omitempty"`
	// FDHog marks a soak cell booted with the descriptor-exhaustion apps.
	FDHog bool `json:"fd_hog,omitempty"`
	// Cell identifies the soak cell (KindSoak).
	Cell *CellRef `json:"cell,omitempty"`

	// Seed is the diffcheck program seed (KindDiffcheck); program and
	// plan are regenerated from it.
	Seed uint64 `json:"seed,omitempty"`

	// ExploreSeed records which explorer perturbation produced this run;
	// 0 for a canonical recording. Replay does not consult it — the
	// Decisions log is authoritative — but minimization and reports do.
	ExploreSeed uint64 `json:"explore_seed,omitempty"`

	// Decisions is the sparse non-canonical choice log of the run (for
	// KindDiffcheck, of the android-persona cell).
	Decisions []Choice `json:"decisions,omitempty"`
	// DecisionsIOS is the iOS-persona cell's choice log (KindDiffcheck).
	DecisionsIOS []Choice `json:"decisions_ios,omitempty"`
	// DecisionCount is how many decision points the run consulted
	// (canonical ones included) — a quick divergence telltale on replay.
	DecisionCount uint64 `json:"decision_count,omitempty"`

	// Digest is the recorded cell digest, as 16 hex digits; replay must
	// reproduce it bit-identically.
	Digest string `json:"digest,omitempty"`
	// Note carries the failure finding that triggered emission.
	Note string `json:"note,omitempty"`
}

// SetDigest stores d in the canonical 16-hex-digit form.
func (a *Artifact) SetDigest(d uint64) { a.Digest = fmt.Sprintf("%016x", d) }

// DigestValue parses the recorded digest.
func (a *Artifact) DigestValue() (uint64, error) {
	v, err := strconv.ParseUint(a.Digest, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("replay: bad digest %q: %v", a.Digest, err)
	}
	return v, nil
}

// Encode renders the artifact as indented JSON with a trailing newline.
// Encoding is canonical: Decode followed by Encode is byte-identical.
func (a *Artifact) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses an encoded artifact, rejecting unknown versions.
func Decode(data []byte) (*Artifact, error) {
	a := &Artifact{}
	if err := json.Unmarshal(data, a); err != nil {
		return nil, fmt.Errorf("replay: decode artifact: %v", err)
	}
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("replay: artifact version %d (want %d)", a.Version, ArtifactVersion)
	}
	switch a.Kind {
	case KindSoak, KindDiffcheck:
	default:
		return nil, fmt.Errorf("replay: unknown artifact kind %q", a.Kind)
	}
	return a, nil
}

// Load reads and decodes an artifact file.
func Load(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// WriteFile encodes the artifact to path (0644).
func (a *Artifact) WriteFile(path string) error {
	b, err := a.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Path names the artifact's file in dir (the OS temp dir when dir is
// empty), deterministically from its provenance:
// cider-replay-<schedule>-<cell> for a soak cell,
// cider-replay-diffcheck-seed-<hex seed> for a diffcheck pair, plus
// -x<explore seed> for an explored run.
func (a *Artifact) Path(dir string) string {
	if dir == "" {
		dir = os.TempDir()
	}
	label := fmt.Sprintf("diffcheck-seed-%x", a.Seed)
	if a.Kind == KindSoak {
		label = a.Schedule
		if a.Cell != nil {
			label += "-" + a.Cell.String()
		}
	}
	name := "cider-replay-" + sanitize(label)
	if a.ExploreSeed != 0 {
		name += fmt.Sprintf("-x%d", a.ExploreSeed)
	}
	return filepath.Join(dir, name+".json")
}

// Emit writes the artifact to Path(dir) and returns the finding line
// that points at it — "<label> (<detail>): reproduce with: cider replay
// <path>", the parenthetical omitted when detail is empty — and the path.
// When the write fails, path is "" and the finding reports the error.
func (a *Artifact) Emit(dir, label, detail string) (finding, path string) {
	path = a.Path(dir)
	if err := a.WriteFile(path); err != nil {
		return fmt.Sprintf("%s: artifact write failed: %v", label, err), ""
	}
	if detail != "" {
		label += " (" + detail + ")"
	}
	return fmt.Sprintf("%s: reproduce with: cider replay %s", label, path), path
}

// Verify checks a replay of the artifact against the recording and
// prints the replay report to w. It fails when the replayed digest
// differs from the recorded one, or when the recording has a decision
// count and the replay consulted a different number of decisions.
func (a *Artifact) Verify(w io.Writer, digest, decisions uint64, findings []string) error {
	want, err := a.DigestValue()
	if err != nil {
		return err
	}
	label := a.Schedule
	if a.Kind == KindDiffcheck {
		label = fmt.Sprintf("seed %#x", a.Seed)
	}
	ref := ""
	if a.Cell != nil {
		ref = " cell " + a.Cell.String()
	}
	fmt.Fprintf(w, "== replay: %s %s%s ==\n", a.Kind, label, ref)
	fmt.Fprintf(w, "  decisions: %d recorded, %d replayed (%d non-canonical)\n",
		a.DecisionCount, decisions, len(a.Decisions)+len(a.DecisionsIOS))
	for _, f := range findings {
		fmt.Fprintf(w, "  finding: %s\n", f)
	}
	if digest != want {
		fmt.Fprintf(w, "  digest: %016x, recorded %016x\n", digest, want)
		return fmt.Errorf("replay: digest mismatch: replayed %016x, recorded %016x", digest, want)
	}
	fmt.Fprintf(w, "  digest: %016x == recorded (bit-identical)\n", digest)
	if a.DecisionCount != 0 && decisions != a.DecisionCount {
		return fmt.Errorf("replay: decision count diverged: replayed %d, recorded %d", decisions, a.DecisionCount)
	}
	return nil
}

// sanitize maps a label to [a-z0-9-] for file names: lmbench test names
// carry '+', '(', ')' and '/'. Runs of other bytes collapse to one '-',
// with none leading or trailing.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	dash := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			out = append(out, c)
			dash = false
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
			dash = false
		default:
			if !dash && len(out) > 0 {
				out = append(out, '-')
				dash = true
			}
		}
	}
	for len(out) > 0 && out[len(out)-1] == '-' {
		out = out[:len(out)-1]
	}
	return string(out)
}
