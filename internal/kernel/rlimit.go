package kernel

// POSIX resource limits (getrlimit/setrlimit), canonical Linux/ARM EABI
// resource numbering. The XNU ABI table translates XNU resource numbers to
// these at the boundary, the same way it renumbers signals and open(2)
// flag bits — rlimit resource numbers are persona-domain payloads, not
// shared constants (XNU says RLIMIT_NOFILE is 8, Linux says 7).

// RLimit is one resource limit: the soft (enforced) value and the hard
// ceiling the soft value may be raised to.
type RLimit struct {
	// Cur is the soft limit, the value the kernel enforces.
	Cur uint64
	// Max is the hard limit.
	Max uint64
}

// RLimInfinity marks an unlimited resource (RLIM_INFINITY).
const RLimInfinity = ^uint64(0)

// Canonical (Linux/ARM) resource numbers (uapi/asm-generic/resource.h).
const (
	// RLimitCPU bounds CPU seconds.
	RLimitCPU = 0
	// RLimitFSize bounds created file sizes.
	RLimitFSize = 1
	// RLimitData bounds the data segment: anonymous (non-file-named)
	// mappings, enforced at map time by the footprint accounting layer.
	RLimitData = 2
	// RLimitStack bounds the stack.
	RLimitStack = 3
	// RLimitCore bounds core dumps.
	RLimitCore = 4
	// RLimitRSS bounds resident set size (Linux ignores it; so do we).
	RLimitRSS = 5
	// RLimitNProc bounds processes per user.
	RLimitNProc = 6
	// RLimitNoFile bounds open file descriptors, enforced by FDTable.
	RLimitNoFile = 7
	// RLimitMemlock bounds locked memory.
	RLimitMemlock = 8
	// RLimitAS bounds total mapped address space, enforced at map time.
	RLimitAS = 9
	// numRLimits bounds valid canonical resource numbers.
	numRLimits = 10
)

// NumRLimits exposes the resource-number bound to user-space runtimes.
const NumRLimits = numRLimits

// DefaultNoFileCur and DefaultNoFileMax are the boot-time RLIMIT_NOFILE
// values, matching a typical mobile configuration (soft 1024, hard 4096).
const (
	DefaultNoFileCur = DefaultFDLimit
	DefaultNoFileMax = 4096
)

// defaultRLimits returns the boot-time limit set: everything unlimited
// except RLIMIT_NOFILE.
func defaultRLimits() [numRLimits]RLimit {
	var rl [numRLimits]RLimit
	for i := range rl {
		rl[i] = RLimit{Cur: RLimInfinity, Max: RLimInfinity}
	}
	rl[RLimitNoFile] = RLimit{Cur: DefaultNoFileCur, Max: DefaultNoFileMax}
	return rl
}

// linuxToXNURlimit maps canonical resource numbers to XNU's
// (bsd/sys/resource.h) where they differ. XNU conflates RLIMIT_RSS and
// RLIMIT_AS into one number (5), so the map is deliberately not a
// bijection: both canonical RSS and canonical AS translate to XNU 5, and
// the inverse picks AS — the limit XNU actually enforces there. CPU,
// FSIZE, DATA, STACK and CORE coincide and pass through.
var linuxToXNURlimit = map[int]int{
	RLimitRSS:     5,
	RLimitNProc:   7,
	RLimitNoFile:  8,
	RLimitMemlock: 6,
	RLimitAS:      5,
}

// xnuToLinuxRlimit is the inverse mapping (XNU 5 resolves to canonical AS).
var xnuToLinuxRlimit = map[int]int{
	5: RLimitAS,
	6: RLimitMemlock,
	7: RLimitNProc,
	8: RLimitNoFile,
}

// RlimitToXNU converts a canonical resource number to XNU numbering.
func RlimitToXNU(res int) int {
	if x, ok := linuxToXNURlimit[res]; ok {
		return x
	}
	return res
}

// RlimitFromXNU converts an XNU resource number to canonical numbering.
func RlimitFromXNU(res int) int {
	if l, ok := xnuToLinuxRlimit[res]; ok {
		return l
	}
	return res
}

// Rlimit returns the task's limit for a canonical resource number.
func (tk *Task) Rlimit(res int) RLimit {
	if res < 0 || res >= numRLimits {
		return RLimit{}
	}
	return tk.rlimits[res]
}

// getrlimitInternal implements getrlimit(2) with canonical numbering.
func (t *Thread) getrlimitInternal(res int) (RLimit, Errno) {
	if res < 0 || res >= numRLimits {
		return RLimit{}, EINVAL
	}
	t.Charge(t.k.costs.RlimitBase)
	return t.task.rlimits[res], OK
}

// setrlimitInternal implements setrlimit(2): the soft limit must not
// exceed the hard limit. The simulation has no privilege model, so raising
// the hard limit is allowed (a root process's view). NOFILE changes
// propagate to the descriptor table immediately; AS/DATA take effect at
// the next mapping request.
func (t *Thread) setrlimitInternal(res int, lim RLimit) Errno {
	if res < 0 || res >= numRLimits || lim.Cur > lim.Max {
		return EINVAL
	}
	t.Charge(t.k.costs.RlimitBase)
	t.task.rlimits[res] = lim
	if res == RLimitNoFile {
		n := lim.Cur
		// RLIM_INFINITY (or anything absurd) clamps to a bound that still
		// fits an int; the table never grows near it in practice.
		const fdCap = 1 << 20
		if n > fdCap {
			n = fdCap
		}
		t.task.fds.SetLimit(int(n))
	}
	return OK
}
