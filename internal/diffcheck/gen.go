package diffcheck

import (
	"fmt"
	"strings"

	"repro/internal/fault"
)

// rng is the deterministic program-generation stream: splitmix64 over
// the fault layer's finalizer, so a seed fully determines a program on
// every host and at every parallelism.
type rng struct{ x uint64 }

func newRNG(seed uint64) *rng { return &rng{x: seed ^ fault.Golden} }

func (r *rng) next() uint64 {
	r.x += fault.Golden
	return fault.Mix64(r.x)
}

// opKind enumerates the generated operations. Every kind must be safe to
// run in any order with any operand values: descriptor operands address a
// slot table (empty slots read as fd -1, a deterministic EBADF on both
// personas), reads and writes are poll-guarded so a program can never
// block forever, and selects always carry a bounded timeout. That
// closure-under-subsequence property is what lets the minimizer drop
// arbitrary ops and still have a runnable program.
type opKind int

const (
	opGetPID opKind = iota
	opPipe
	opSocketpair
	opOpen
	opCreat
	opOpenCreate
	opDup
	opClose
	opWrite
	opRead
	opUnlink
	opSelectPoll
	opSignal
	opForkWait
	opMach
	opRlimit
	opPressure
	numOpKinds
)

func (k opKind) String() string {
	switch k {
	case opGetPID:
		return "getpid"
	case opPipe:
		return "pipe"
	case opSocketpair:
		return "socketpair"
	case opOpen:
		return "open"
	case opCreat:
		return "creat"
	case opOpenCreate:
		return "open_create"
	case opDup:
		return "dup"
	case opClose:
		return "close"
	case opWrite:
		return "write"
	case opRead:
		return "read"
	case opUnlink:
		return "unlink"
	case opSelectPoll:
		return "select_poll"
	case opSignal:
		return "signal"
	case opForkWait:
		return "fork_wait"
	case opMach:
		return "mach"
	case opRlimit:
		return "rlimit"
	case opPressure:
		return "pressure"
	}
	return "op?"
}

// Op is one generated operation; A/B/C are raw operand words whose
// interpretation (slot index, path index, payload length, signal pick)
// is per-kind and always reduced modulo the valid range at execution.
type Op struct {
	Kind    opKind
	A, B, C uint64
}

// Program is one generated differential test case.
type Program struct {
	Seed uint64
	Ops  []Op
}

// Generate derives a program from a seed: 10–25 ops drawn uniformly from
// the op table with independent operand words.
func Generate(seed uint64) *Program {
	r := newRNG(seed)
	n := 10 + int(r.next()%16)
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{
			Kind: opKind(r.next() % uint64(numOpKinds)),
			A:    r.next(),
			B:    r.next(),
			C:    r.next(),
		}
	}
	return &Program{Seed: seed, Ops: ops}
}

// Text serializes the program deterministically — the corpus format and
// the determinism tests' byte-comparison target.
func (p *Program) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prog seed=%#x ops=%d\n", p.Seed, len(p.Ops))
	for i, op := range p.Ops {
		fmt.Fprintf(&b, "%02d %s a=%d b=%d c=%d\n", i, op.Kind, op.A%1000, op.B%1000, op.C%1000)
	}
	return b.String()
}

// PlanFor derives the seed's fault schedule. A third of seeds run clean;
// the rest get one or two transient-errno rules on the file-descriptor
// syscalls.
//
// Only Nth-based rules are usable here: a rule's per-key hit counter sees
// the same sequence of eligible operations in both cells, so "fire on the
// Nth hit" injects at the same program point under either persona. Every
// is unusable — its fire decision hashes the injection key, and syscall
// keys carry the persona prefix ("android/read" vs "ios/read"), so the
// same rule would fire at different points in the two cells. After/Until
// are equally unusable: they window on virtual time, and the personas'
// syscall costs legitimately differ. Asymmetric injection is still
// valuable — it is how the minimizer is tested — it just cannot be part
// of the oracle's own schedules.
//
// OpMemPressure rules are the exception that proves the rule: their key is
// the charging task's executable path ("/bin/diffcheck-main"), which
// carries no persona prefix and is identical in both cells, and their hit
// counter advances on footprint growth (exec materialization, cache
// inflation), not on virtual time. Nth-based pressure rules are therefore
// persona-symmetric and usable in the oracle — they drive the
// memorystatus notify path through both personas' pressure-delivery
// stacks at the same program point. Only warn-level episodes are
// scheduled here: a critical episode kills the lone generated process,
// truncating both logs at whatever op was in flight, which exercises
// nothing the pressure soaks don't already cover.
func PlanFor(seed uint64) fault.Plan {
	r := newRNG(seed ^ 0xd1ffc4ec0ffee)
	plan := fault.Plan{Name: "diffcheck", Seed: seed}
	if r.next()%3 == 0 {
		return plan
	}
	matches := [...]string{"*/read", "*/write", "*/open", "*/dup", "*/setrlimit"}
	// Canonical (Linux) numbers, as everywhere in the kernel:
	// EINTR, EAGAIN, EMFILE, EIO.
	errnos := [...]int{4, 11, 24, 5}
	n := 1 + int(r.next()%2)
	for i := 0; i < n; i++ {
		plan.Rules = append(plan.Rules, fault.Rule{
			Op:    fault.OpSyscall,
			Match: matches[r.next()%uint64(len(matches))],
			Errno: errnos[r.next()%uint64(len(errnos))],
			Nth:   1 + r.next()%6,
		})
	}
	if r.next()%2 == 0 {
		// Warn-level pressure episode on the Nth footprint growth; the
		// memorystatus consult translates Errno 1 (PressureWarn) into a
		// notify-only episode.
		plan.Rules = append(plan.Rules, fault.Rule{
			Op:    fault.OpMemPressure,
			Match: "*",
			Errno: 1,
			Nth:   1 + r.next()%4,
		})
	}
	return plan
}
