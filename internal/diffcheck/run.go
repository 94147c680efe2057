package diffcheck

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bionic"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/mem"
	"repro/internal/persona"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/xnu"
)

// machTick bounds every Mach send/receive the generator emits, so an
// injected queue stall can delay but never wedge a program.
const machTick = 200 * time.Microsecond

// libc is the persona-generic system interface a generated program runs
// against. Adapters canonicalize everything persona-specific at the
// boundary — errnos to Linux numbering, signal numbers to canonical —
// so the executor's log is directly comparable across cells. Anything
// that still differs after canonicalization is, by construction, a
// behavioral divergence.
type libc interface {
	GetPID() int
	GetPPID() int
	Pipe() (int, int, kernel.Errno)
	Socketpair() (int, int, kernel.Errno)
	Open(path string) (int, kernel.Errno)
	OpenCreate(path string) (int, kernel.Errno)
	Creat(path string) (int, kernel.Errno)
	Dup(fd int) (int, kernel.Errno)
	Close(fd int) kernel.Errno
	Read(fd int, buf []byte) (int, kernel.Errno)
	Write(fd int, buf []byte) (int, kernel.Errno)
	Unlink(path string) kernel.Errno
	Select(req *kernel.SelectRequest) (*kernel.SelectResult, kernel.Errno)
	// Kill sends a canonical-numbered signal to pid.
	Kill(pid, sig int) kernel.Errno
	// Sigaction installs a handler for a canonical-numbered signal; fn
	// receives the delivered number converted back to canonical.
	Sigaction(sig int, fn func(canonical int)) kernel.Errno
	// Getrlimit reads a canonical-numbered resource limit; adapters
	// renumber at the boundary (XNU says RLIMIT_NOFILE is 8, Linux 7).
	Getrlimit(res int) (cur, max uint64, errno kernel.Errno)
	// Setrlimit sets a canonical-numbered resource limit.
	Setrlimit(res int, cur, max uint64) kernel.Errno
	// OnPressure registers a memory-pressure listener; the persona level
	// vocabulary (dispatch-source flags, onTrimMemory levels) is
	// canonicalized to "warn"/"critical".
	OnPressure(fn func(level string))
	// CacheInflate maps and touches n bytes of anonymous cache ballast —
	// the footprint growth pressure rules key on.
	CacheInflate(n uint64) bool
	// CacheShed unmaps the oldest ballast chunk, if any remains.
	CacheShed() bool
	// Errno reads the persona TLS errno, canonicalized.
	Errno() int
	Fork(child func(libc)) int
	Wait(pid int) (int, int, kernel.Errno)
	Exit(status int)
	// MachPingPong allocates a reply port, self-sends one message, and
	// receives it back (the generator's Mach IPC pattern).
	MachPingPong(id int32) (allocOK bool, sendKR, recvKR int, gotID int32)
}

// memState is the per-process cache-ballast ledger the pressure ops
// operate on: inflated chunk bases in inflation order, shed oldest-first
// (the cache-eviction shape both personas' shedding callbacks model).
type memState struct{ bases []uint64 }

// cacheInflate maps and touches one anonymous ballast chunk; the
// zero-fill materialization is the footprint-charge point OpMemPressure
// rules count.
func cacheInflate(th *kernel.Thread, st *memState, n uint64) bool {
	r, err := th.Task().Mem().Map(0, n, mem.ProtRead|mem.ProtWrite, "[dc-cache]", false)
	if err != nil {
		return false
	}
	r.Backing().Bytes()
	st.bases = append(st.bases, r.Base)
	return true
}

// cacheShed releases the oldest ballast chunk.
func cacheShed(th *kernel.Thread, st *memState) bool {
	if len(st.bases) == 0 {
		return false
	}
	base := st.bases[0]
	st.bases = st.bases[1:]
	return th.Task().Mem().Unmap(base) == nil
}

// androidLibc adapts bionic: results are already canonical; Mach traps
// exist only in the XNU table, so the adapter brackets them with the
// set_persona diplomat hop (normalization strips those events).
type androidLibc struct {
	*bionic.C
	ms *memState
}

func (a androidLibc) Sigaction(sig int, fn func(int)) kernel.Errno {
	return a.C.Sigaction(sig, func(_ *kernel.Thread, got int) { fn(got) })
}
func (a androidLibc) OnPressure(fn func(string)) {
	a.OnTrimMemory(func(level int) {
		lvl := "warn"
		if level == bionic.TrimMemoryRunningCritical {
			lvl = "critical"
		}
		fn(lvl)
	})
}
func (a androidLibc) CacheInflate(n uint64) bool { return cacheInflate(a.T, a.ms, n) }
func (a androidLibc) CacheShed() bool            { return cacheShed(a.T, a.ms) }
func (a androidLibc) Fork(child func(libc)) int {
	return a.C.Fork(func(cc *bionic.C) { child(androidLibc{C: cc, ms: &memState{}}) })
}
func (a androidLibc) MachPingPong(id int32) (bool, int, int, int32) {
	a.SetPersona(persona.IOS)
	res := machPingPong(libsystem.Sys(a.T), id)
	a.SetPersona(persona.Android)
	return res.ok, res.sendKR, res.recvKR, res.gotID
}

// iosLibc adapts libSystem: BSD errnos, XNU signal numbers, and XNU
// rlimit resource numbers are converted at this boundary, mirroring what
// a comparison harness on real hardware does to a ktrace stream.
type iosLibc struct {
	*libsystem.C
	ms *memState
}

func (a iosLibc) Kill(pid, sig int) kernel.Errno {
	return a.C.Kill(pid, kernel.SignalToXNU(sig))
}
func (a iosLibc) Sigaction(sig int, fn func(int)) kernel.Errno {
	return a.C.Sigaction(kernel.SignalToXNU(sig), func(_ *kernel.Thread, got int) {
		fn(kernel.SignalFromXNU(got))
	})
}
func (a iosLibc) Getrlimit(res int) (uint64, uint64, kernel.Errno) {
	return a.C.Getrlimit(kernel.RlimitToXNU(res))
}
func (a iosLibc) Setrlimit(res int, cur, max uint64) kernel.Errno {
	return a.C.Setrlimit(kernel.RlimitToXNU(res), cur, max)
}
func (a iosLibc) OnPressure(fn func(string)) {
	a.DispatchSourceMemoryPressure(func(flags int) {
		lvl := "warn"
		if flags == libsystem.DispatchMemoryPressureCritical {
			lvl = "critical"
		}
		fn(lvl)
	})
}
func (a iosLibc) CacheInflate(n uint64) bool { return cacheInflate(a.T, a.ms, n) }
func (a iosLibc) CacheShed() bool            { return cacheShed(a.T, a.ms) }
func (a iosLibc) Errno() int                 { return int(kernel.ErrnoFromXNU(a.C.Errno())) }
func (a iosLibc) Fork(child func(libc)) int {
	return a.C.Fork(func(cc *libsystem.C) { child(iosLibc{C: cc, ms: &memState{}}) })
}
func (a iosLibc) MachPingPong(id int32) (bool, int, int, int32) {
	res := machPingPong(a.C, id)
	return res.ok, res.sendKR, res.recvKR, res.gotID
}

type machResult struct {
	ok             bool
	sendKR, recvKR int
	gotID          int32
}

func machPingPong(ls *libsystem.C, id int32) machResult {
	port := ls.MachReplyPort()
	if port == xnu.PortNull {
		return machResult{gotID: -1}
	}
	res := machResult{ok: true, gotID: -1}
	res.sendKR = int(ls.MachSend(port, &xnu.Message{ID: id, Body: []byte("dc")}, machTick))
	msg, rkr := ls.MachReceive(port, machTick)
	res.recvKR = int(rkr)
	if msg != nil {
		res.gotID = msg.ID
	}
	return res
}

// sigPool is the canonical signal set the generator draws from: the
// shared-numbering baseline (HUP), the classic translated pairs
// (USR1/USR2), and every number the bijection fix covers (TSTP, URG, IO,
// PWR, SYS). All are handled before being raised, so no default
// disposition ever terminates a program.
var sigPool = [...]int{
	kernel.SIGHUP, kernel.SIGUSR1, kernel.SIGUSR2, kernel.SIGTSTP,
	kernel.SIGURG, kernel.SIGIO, kernel.SIGPWR, kernel.SIGSYS,
}

// paths is the fixed file namespace programs operate in.
var paths = [...]string{"/f0", "/f1", "/f2", "/f3", "/f4", "/f5", "/f6", "/f7"}

// execProgram interprets p against c, appending one canonical result line
// per op to log. It must never block unboundedly: reads and writes are
// poll-guarded, selects and Mach calls carry timeouts, and the only
// blocking wait (wait4) is on a child guaranteed to exit.
func execProgram(c libc, p *Program, log *[]string) {
	var slots [8]int
	for i := range slots {
		slots[i] = -1
	}
	slot := func(v uint64) *int { return &slots[v%uint64(len(slots))] }
	path := func(v uint64) string { return paths[v%uint64(len(paths))] }
	emit := func(i int, op Op, format string, args ...any) {
		*log = append(*log, fmt.Sprintf("%02d %s ", i, op.Kind)+fmt.Sprintf(format, args...))
	}
	// Pressure ops share one shedding listener (armed on first use) and a
	// running log of canonicalized levels; delivery is synchronous with
	// the inflation that crossed the injected watermark, so the log each
	// op emits is deterministic.
	var pressureLog []string
	pressureArmed := false
	// pollReady reports fd readiness without blocking (timeout 0).
	pollReady := func(fd int, write bool) (bool, kernel.Errno) {
		req := &kernel.SelectRequest{Timeout: 0}
		if write {
			req.WriteFDs = []int{fd}
		} else {
			req.ReadFDs = []int{fd}
		}
		res, errno := c.Select(req)
		if errno != kernel.OK {
			return false, errno
		}
		return res.N() > 0, kernel.OK
	}

	for i, op := range p.Ops {
		switch op.Kind {
		case opGetPID:
			emit(i, op, "pid=%d ppid=%d tls=%d", c.GetPID(), c.GetPPID(), c.Errno())
		case opPipe:
			r, w, errno := c.Pipe()
			*slot(op.A) = r
			*slot(op.B) = w
			emit(i, op, "r=%d w=%d errno=%v tls=%d", r, w, errno, c.Errno())
		case opSocketpair:
			a, b, errno := c.Socketpair()
			*slot(op.A) = a
			*slot(op.B) = b
			emit(i, op, "a=%d b=%d errno=%v tls=%d", a, b, errno, c.Errno())
		case opOpen:
			fd, errno := c.Open(path(op.A))
			*slot(op.B) = fd
			emit(i, op, "%s fd=%d errno=%v tls=%d", path(op.A), fd, errno, c.Errno())
		case opCreat:
			fd, errno := c.Creat(path(op.A))
			*slot(op.B) = fd
			emit(i, op, "%s fd=%d errno=%v tls=%d", path(op.A), fd, errno, c.Errno())
		case opOpenCreate:
			fd, errno := c.OpenCreate(path(op.A))
			*slot(op.B) = fd
			emit(i, op, "%s fd=%d errno=%v tls=%d", path(op.A), fd, errno, c.Errno())
		case opDup:
			fd, errno := c.Dup(*slot(op.A))
			*slot(op.B) = fd
			emit(i, op, "old=%d new=%d errno=%v tls=%d", *slot(op.A), fd, errno, c.Errno())
		case opClose:
			errno := c.Close(*slot(op.A))
			emit(i, op, "fd=%d errno=%v tls=%d", *slot(op.A), errno, c.Errno())
			*slot(op.A) = -1
		case opWrite:
			fd := *slot(op.A)
			ready, perr := pollReady(fd, true)
			if perr != kernel.OK {
				// Bad fd: attempt the write anyway for the errno.
				n, errno := c.Write(fd, []byte{0})
				emit(i, op, "fd=%d poll=%v n=%d errno=%v", fd, perr, n, errno)
				continue
			}
			if !ready {
				emit(i, op, "fd=%d notready", fd)
				continue
			}
			buf := make([]byte, 1+op.B%64)
			for j := range buf {
				buf[j] = byte('a' + i%26)
			}
			n, errno := c.Write(fd, buf)
			emit(i, op, "fd=%d n=%d errno=%v tls=%d", fd, n, errno, c.Errno())
		case opRead:
			fd := *slot(op.A)
			ready, perr := pollReady(fd, false)
			if perr != kernel.OK {
				n, errno := c.Read(fd, make([]byte, 1))
				emit(i, op, "fd=%d poll=%v n=%d errno=%v", fd, perr, n, errno)
				continue
			}
			if !ready {
				emit(i, op, "fd=%d notready", fd)
				continue
			}
			buf := make([]byte, 1+op.B%64)
			n, errno := c.Read(fd, buf)
			emit(i, op, "fd=%d n=%d data=%q errno=%v", fd, n, buf[:max(n, 0)], errno)
		case opUnlink:
			errno := c.Unlink(path(op.A))
			emit(i, op, "%s errno=%v tls=%d", path(op.A), errno, c.Errno())
		case opSelectPoll:
			req := &kernel.SelectRequest{
				ReadFDs:  []int{*slot(op.A), *slot(op.B)},
				WriteFDs: []int{*slot(op.C)},
				Timeout:  0,
			}
			res, errno := c.Select(req)
			n := 0
			if res != nil {
				n = res.N()
			}
			emit(i, op, "ready=%d errno=%v", n, errno)
		case opSignal:
			sig := sigPool[op.A%uint64(len(sigPool))]
			var delivered []int
			aerr := c.Sigaction(sig, func(canonical int) {
				delivered = append(delivered, canonical)
			})
			kerr := c.Kill(c.GetPID(), sig)
			emit(i, op, "sig=%d act=%v kill=%v delivered=%v", sig, aerr, kerr, delivered)
		case opForkWait:
			r, w, errno := c.Pipe()
			if errno != kernel.OK {
				emit(i, op, "pipe errno=%v", errno)
				continue
			}
			payload := []byte(fmt.Sprintf("c%d", op.A%100))
			status := int(op.A % 32)
			pid := c.Fork(func(cc libc) {
				cc.Write(w, payload)
				cc.Exit(status)
			})
			if pid < 0 {
				emit(i, op, "fork failed tls=%d", c.Errno())
				c.Close(r)
				c.Close(w)
				continue
			}
			wpid, wstatus, werr := c.Wait(pid)
			ready, _ := pollReady(r, false)
			buf := make([]byte, 16)
			n := 0
			if ready {
				n, _ = c.Read(r, buf)
			}
			c.Close(r)
			c.Close(w)
			emit(i, op, "child=%v status=%d werr=%v data=%q",
				wpid == pid, wstatus, werr, buf[:max(n, 0)])
		case opMach:
			id := int32(op.A % 100)
			ok, skr, rkr, got := c.MachPingPong(id)
			emit(i, op, "alloc=%v send=%d recv=%d id=%v", ok, skr, rkr, got == id)
		case opRlimit:
			// Canonical NOFILE on both personas; the iOS adapter renumbers
			// to XNU 8 at the boundary.
			switch op.A % 3 {
			case 0:
				cur, lim, errno := c.Getrlimit(kernel.RLimitNoFile)
				emit(i, op, "get nofile cur=%d max=%d errno=%v tls=%d", cur, lim, errno, c.Errno())
			case 1:
				soft := 24 + op.B%40
				serr := c.Setrlimit(kernel.RLimitNoFile, soft, 4096)
				cur, _, _ := c.Getrlimit(kernel.RLimitNoFile)
				emit(i, op, "set nofile=%d cur=%d errno=%v tls=%d", soft, cur, serr, c.Errno())
			case 2:
				serr := c.Setrlimit(kernel.RLimitNoFile, 512, 16)
				emit(i, op, "set cur>max errno=%v tls=%d", serr, c.Errno())
			}
		case opPressure:
			if !pressureArmed {
				pressureArmed = true
				c.OnPressure(func(level string) {
					pressureLog = append(pressureLog, level)
					c.CacheShed()
				})
			}
			ok := c.CacheInflate((1 + op.B%4) << 12)
			emit(i, op, "inflate=%v levels=%v tls=%d", ok, pressureLog, c.Errno())
		}
	}
}

// CellResult is everything one persona cell produced for a program:
// the canonical per-op result log, normalized per-process event streams,
// trace counters, and the cell's health signals.
type CellResult struct {
	Persona persona.Kind
	// Log is the executor's canonical per-op result log.
	Log []string
	// Events maps "proc#pid" to that process's normalized event lines.
	Events map[string][]string
	// Procs is the sorted key set of Events.
	Procs []string
	// Counters is the trace session's named-counter export.
	Counters map[string]uint64
	// Dropped counts ring-evicted events; non-zero poisons comparison.
	Dropped uint64
	// LeakErr is the post-run kernel.LeakCheck failure, if any.
	LeakErr string
	// Err is a boot or run failure, if any.
	Err string
}

// progKey is the registry key and binary name both cells share, so
// process names (and therefore per-proc event stream keys) line up.
const progKey = "diffcheck-main"

// RunCell executes p in a fresh minimal Cider cell under the given
// persona and fault plan and collects the comparison inputs.
func RunCell(p *Program, ios bool, plan fault.Plan) *CellResult {
	return RunCellDecided(p, ios, plan, nil)
}

// RunCellDecided is RunCell with a scheduler decision policy attached to
// the cell's simulator before anything runs: a replay.Recorder to log
// the schedule, a replay.Explorer to perturb it, or a replay.Replayer
// to pin it to a recorded artifact. nil runs the canonical schedule.
func RunCellDecided(p *Program, ios bool, plan fault.Plan, dec sim.Decider) *CellResult {
	res := &CellResult{Persona: persona.Android}
	if ios {
		res.Persona = persona.IOS
	}
	sys, err := core.NewMinimalCider()
	if err != nil {
		res.Err = fmt.Sprintf("boot: %v", err)
		return res
	}
	tr := sys.EnableTrace()
	sys.EnableFaults(plan)
	sys.Sim.SetDecider(dec)
	// Programs are short; a deep ring guarantees Dropped()==0 so the
	// event comparison sees complete streams.
	tr.SetRingCapacity(1 << 16)
	sys.Registry.MustRegister(progKey, func(call *prog.Call) uint64 {
		th := call.Ctx.(*kernel.Thread)
		if ios {
			th.Persona.Switch(persona.IOS)
			execProgram(iosLibc{C: libsystem.Sys(th), ms: &memState{}}, p, &res.Log)
		} else {
			execProgram(androidLibc{C: bionic.Sys(th), ms: &memState{}}, p, &res.Log)
		}
		return 0
	})
	if err := prog.InstallStatic(sys.Kernel.Root().(*vfs.FS), "/bin/"+progKey, progKey); err != nil {
		res.Err = fmt.Sprintf("install: %v", err)
		return res
	}
	if _, err := sys.Start("/bin/"+progKey, nil); err != nil {
		res.Err = fmt.Sprintf("start: %v", err)
		return res
	}
	if err := sys.Run(); err != nil {
		res.Err = fmt.Sprintf("run: %v", err)
		return res
	}
	if err := sys.Kernel.LeakCheck(); err != nil {
		res.LeakErr = err.Error()
	}
	res.Dropped = tr.Dropped()
	res.Events = map[string][]string{}
	for _, ev := range tr.Events() {
		line, procKey, keep := normalizeEvent(ev)
		if !keep {
			continue
		}
		res.Events[procKey] = append(res.Events[procKey], line)
	}
	for key := range res.Events {
		res.Procs = append(res.Procs, key)
	}
	sort.Strings(res.Procs)
	res.Counters = map[string]uint64{}
	for _, nc := range tr.Counters() {
		res.Counters[nc.Name] = nc.Value
	}
	return res
}
