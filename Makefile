GO ?= go

.PHONY: build test vet lint lint-fixtures race profile soak soak-smoke soak-smoke-crash soak-smoke-pressure diffcheck diffcheck-smoke replay-smoke explore perfbench-test verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs ciderlint, the full static suite: the v1 simulation
# invariants (wallclock, chargecheck, waketag, tracepure) and the v2
# ABI-fidelity/concurrency/hot-path passes (tablecomplete, xlatecheck,
# lockorder, hotalloc) — see DESIGN.md "Simulation invariants" and
# "Static analysis v2". -timing prints per-analyzer wall-clock totals and
# the trailing findings/allowed/analyzers summary line.
lint:
	$(GO) run ./cmd/ciderlint -timing ./...

# lint-fixtures is the bounded analyzer smoke wired into verify: the
# want-annotated fixture suites prove each analyzer still fires on its
# known-bad shapes (a regression here means the tree gate is toothless).
lint-fixtures:
	$(GO) test -count=1 -run 'TestWallclock|TestChargeCheck|TestWakeTag|TestTracePure|TestTableComplete|TestXlateCheck|TestLockOrder|TestHotAlloc|TestDirectives|TestAnalyzersDeterministic' ./internal/analysis

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# profile writes CPU and allocation profiles of the Fig. 5 and Fig. 6
# batteries alone (the root BenchmarkFig5*/BenchmarkFig6* benchmarks) for
# the burn-down methodology (go tool pprof -top repro.test cpu.pprof;
# mem.pprof holds cumulative allocations).
profile:
	$(GO) test -run '^$$' -bench 'Fig5|Fig6' -benchtime 10x -cpuprofile cpu.pprof -memprofile mem.pprof -o repro.test .

# soak runs the full fault-schedule matrix over the complete Fig. 5 + 6
# batteries with cross-jobs determinism verification — the long-form
# error-path burn-down (see DESIGN.md "Fault model and error-path
# invariants").
soak:
	$(GO) run ./cmd/cider soak -full -verify

# soak-smoke is the 1-schedule version wired into verify: the eintr-storm
# schedule over the reduced battery, with the jobs=1 vs jobs=N digest
# comparison, proves injection, leak checking and determinism end to end
# in a few seconds.
soak-smoke:
	$(GO) run ./cmd/cider soak -quick -verify -schedule eintr-storm

# soak-smoke-crash is the crash-containment smoke: the daemon-crash
# schedule kills service daemons mid-battery; launchd must respawn them,
# crash reports must land, and the digest must stay jobs-invariant.
soak-smoke-crash:
	$(GO) run ./cmd/cider soak -quick -verify -schedule daemon-crash

# soak-smoke-pressure is the resource-governance smoke: the
# mem-pressure-storm schedule drives the memorystatus ladder (notify,
# shed, jetsam in band order) while the benchmark runs foreground;
# the digest must stay jobs-invariant, the foreground must survive,
# kills must actually fire, and launchd must respawn reaped daemons
# without charging its crash-loop budget.
soak-smoke-pressure:
	$(GO) run ./cmd/cider soak -quick -verify -schedule mem-pressure-storm

# diffcheck runs the differential persona oracle at full depth: 200
# seeded programs, each executed under both personas and diffed after
# normalization; any unallowlisted divergence is minimized, reported,
# and fails the target (see DESIGN.md "Differential persona testing").
diffcheck:
	$(GO) run ./cmd/cider diffcheck --seeds 200

# diffcheck-smoke is the bounded version wired into verify: enough seeds
# to cross every op kind and fault-schedule shape, small enough to stay
# in tier-1 time. The always-on test-suite gate is
# internal/diffcheck.TestTreeHasNoDivergences.
diffcheck-smoke:
	$(GO) run ./cmd/cider diffcheck --seeds 60

# replay-smoke is the record/replay round trip wired into verify: record
# two soak cells (the decision-heavy mach cell and one lmbench cell),
# write each artifact through the canonical encoder, reload, re-execute
# in isolation, and assert the replayed digest is bit-identical to the
# recorded one (see DESIGN.md "Record/replay and schedule exploration").
replay-smoke:
	$(GO) run ./cmd/cider replay -smoke

# explore is the bounded DPOR-lite run: every soak schedule's cells and
# every diffcheck persona pair re-execute under seeded perturbations of
# each ambiguous scheduler decision (equal-time next-pick, wake order,
# preemption ties); any invariant violation or persona divergence is
# delta-debug minimized and written out as a one-command replay
# artifact. Deterministic for fixed rounds — rerunning reproduces the
# same schedules, findings and digests.
explore:
	$(GO) run ./cmd/cider soak --explore 5
	$(GO) run ./cmd/cider diffcheck --explore 3 --seeds 60

# perfbench-test vets and tests the benchmark's own module. `go test ./...`
# at the root skips it (perfbench/ is a nested module), yet it is the one
# suite that checks soak schedule and cell digests, diffcheck outcomes and
# the checked-in replay against perfbench/reference.json.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

# verify is the tier-1 gate: everything must build, vet clean, pass
# ciderlint, pass the full test suite under the race detector, pass the
# benchmark module's reference checks, run the soak and diffcheck
# harnesses once end to end, and prove the record/replay round trip is
# bit-identical.
verify: build vet lint lint-fixtures race perfbench-test soak-smoke soak-smoke-crash soak-smoke-pressure diffcheck-smoke replay-smoke
