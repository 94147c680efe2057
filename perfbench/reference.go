package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// referenceJSON holds the virtual-time outputs every pass must reproduce
// bit for bit. Regenerate it only when a change is meant to move
// simulated results: perfbench --write-reference perfbench/reference.json
//
//go:embed reference.json
var referenceJSON []byte

// reference is the stored output of the fixed batteries. Failures by
// design are part of it: the five Fig. 5 cells that cannot run on their
// configuration, and soak cells whose failure the schedule injects.
type reference struct {
	Fig5 []fig5Cell `json:"fig5"`
	Fig6 []fig6Cell `json:"fig6"`
	Soak []soakRef  `json:"soak"`
}

// fig5Cell is one lmbench (test, configuration) latency.
type fig5Cell struct {
	Test      string `json:"test"`
	Config    string `json:"config"`
	LatencyNS int64  `json:"latency_ns"`
	Failed    bool   `json:"failed"`
}

// fig6Cell is one PassMark (test, configuration) score. JSON keeps the
// shortest decimal that round-trips, so Score compares exactly.
type fig6Cell struct {
	Test   string  `json:"test"`
	Config string  `json:"config"`
	Score  float64 `json:"score"`
	Err    string  `json:"err,omitempty"`
}

// soakRef is one soak schedule's outcome over the benchmark's battery.
type soakRef struct {
	Schedule    string `json:"schedule"`
	Digest      uint64 `json:"digest"`
	Cells       int    `json:"cells"`
	FailedCells int    `json:"failed_cells"`
	Injected    uint64 `json:"injected"`
	// CellDigests are the per-cell digests of soak.RecordCell, in
	// soak.CellRefs order.
	CellDigests []uint64 `json:"cell_digests"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

func (r *reference) soak(schedule string) (soakRef, bool) {
	for _, s := range r.Soak {
		if s.Schedule == schedule {
			return s, true
		}
	}
	return soakRef{}, false
}

func (r *reference) write(path string) error {
	buf, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// compareCells counts the cells of got that differ from want; a length
// mismatch fails every cell.
func compareCells[T comparable](want, got []T) (failed int, problems []string) {
	if len(got) != len(want) {
		return max(len(got), len(want)), []string{fmt.Sprintf("got %d cells, reference has %d", len(got), len(want))}
	}
	for i := range want {
		if got[i] != want[i] {
			failed++
			problems = append(problems, fmt.Sprintf("cell %d: got %+v, reference %+v", i, got[i], want[i]))
		}
	}
	return failed, problems
}
