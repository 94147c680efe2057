package kernel

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/persona"
	"repro/internal/vfs"
)

// Linux ARM EABI syscall numbers for the calls the simulation implements.
const (
	SysExit        = 1
	SysFork        = 2
	SysRead        = 3
	SysWrite       = 4
	SysOpen        = 5
	SysClose       = 6
	SysCreat       = 8
	SysUnlink      = 10
	SysExecve      = 11
	SysGetpid      = 20
	SysKill        = 37
	SysPipe        = 42
	SysIoctl       = 54
	SysDup         = 41
	SysGetppid     = 64
	SysSelect      = 142 // _newselect
	SysRtSigaction = 174
	SysWait4       = 114
	SysSocketpair  = 288 // ARM EABI socketpair
	SysSetrlimit   = 75
	SysGetrlimit   = 191 // ugetrlimit, the variant modern libcs call
	// SysSetPersona is the new syscall Cider adds, "available from all
	// personas" (Section 4.3). It occupies an unused slot.
	SysSetPersona = 983045
)

// SyscallArgs carries a syscall's arguments across the dispatch boundary.
// Raw integer registers ride in I; pointer-typed payloads that a real
// kernel would copy in from user memory ride in the typed fields (the
// simulation's stand-in for copy_from_user).
type SyscallArgs struct {
	// I holds up to six register arguments.
	I [6]uint64
	// Path is a pathname argument.
	Path string
	// Path2 is a second pathname (rename).
	Path2 string
	// Buf is a data buffer (read target / write source).
	Buf []byte
	// Argv is an argument vector (execve).
	Argv []string
	// Act is a signal disposition (sigaction).
	Act *SigAction
	// ChildFn is the child body for fork-family calls (the simulation's
	// stand-in for "returns twice"; see Thread.forkInternal).
	ChildFn func(*Thread)
	// Select is the descriptor-set payload for select(2).
	Select *SelectRequest
}

// SyscallRet carries a syscall's results.
type SyscallRet struct {
	// R0 is the primary return value.
	R0 uint64
	// R1 is the secondary return value (pipe, socketpair).
	R1 uint64
	// Errno is OK on success.
	Errno Errno
	// Select is select's result payload.
	Select *SelectResult
}

// SyscallHandler implements one syscall.
type SyscallHandler func(t *Thread, a *SyscallArgs) SyscallRet

// SyscallTable is one persona's dispatch table. Cider "maintains one or
// more syscall dispatch tables for each persona, and switches among them
// based on the persona of the calling thread and the syscall number"
// (Section 4.1).
type SyscallTable struct {
	// Name identifies the table ("linux", "xnu").
	Name string
	// Translates marks a foreign-ABI table: every call through it pays the
	// kernel's XNUTrapDemux and XNUArgTranslate costs on entry and
	// XNURetTranslate on exit, priced from the cost table at trap time.
	Translates bool
	// dense is the dispatch array for the contiguous low syscall-number
	// range: dispatch is an index and a nil check, no hashing. ABI numbers
	// cluster near zero; the only outlier is Cider's set_persona
	// (983045), which lives in the fallback maps.
	dense        []SyscallHandler
	denseNames   []string
	outliers     map[int]SyscallHandler
	outlierNames map[int]string
}

// maxDense bounds the dense array: numbers at or above this (set_persona's
// unused-slot encoding) go to the outlier maps rather than growing a
// megabyte of nil handler slots.
const maxDense = 4096

// NewSyscallTable creates an empty table.
func NewSyscallTable(name string) *SyscallTable {
	return &SyscallTable{
		Name:         name,
		outliers:     make(map[int]SyscallHandler),
		outlierNames: make(map[int]string),
	}
}

// Register installs a handler for a syscall number.
func (tb *SyscallTable) Register(num int, name string, h SyscallHandler) {
	if num >= 0 && num < maxDense {
		if num >= len(tb.dense) {
			dense := make([]SyscallHandler, num+1)
			copy(dense, tb.dense)
			tb.dense = dense
			names := make([]string, num+1)
			copy(names, tb.denseNames)
			tb.denseNames = names
		}
		tb.dense[num] = h
		tb.denseNames[num] = name
		return
	}
	tb.outliers[num] = h
	tb.outlierNames[num] = name
}

// Lookup returns the handler for num.
//
//hot:noalloc
func (tb *SyscallTable) Lookup(num int) (SyscallHandler, bool) {
	if uint(num) < uint(len(tb.dense)) {
		h := tb.dense[num]
		return h, h != nil
	}
	h, ok := tb.outliers[num]
	return h, ok
}

// NameOf returns the registered name of a syscall number, or "sys_<num>"
// when none is registered.
func (tb *SyscallTable) NameOf(num int) string {
	if n, ok := tb.name(num); ok {
		return n
	}
	return fmt.Sprintf("sys_%d", num)
}

// name returns the registered name of a syscall number.
//
//hot:noalloc
func (tb *SyscallTable) name(num int) (string, bool) {
	if uint(num) < uint(len(tb.denseNames)) && tb.dense[num] != nil {
		return tb.denseNames[num], true
	}
	n, ok := tb.outlierNames[num]
	return n, ok
}

// Len returns the number of registered handlers.
func (tb *SyscallTable) Len() int {
	n := len(tb.outliers)
	for _, h := range tb.dense {
		if h != nil {
			n++
		}
	}
	return n
}

// emptySyscallArgs normalizes nil args without a per-call allocation.
// Handlers treat their args as read-only (they are the copied-in user
// registers), so sharing one zero value across all argless traps is safe.
var emptySyscallArgs = &SyscallArgs{}

// Syscall is the kernel trap entry: every simulated user-space trap funnels
// through here. It charges entry/exit costs, performs Cider's per-entry
// persona check, dispatches through the calling thread's persona table, and
// delivers pending signals on the return path. Only its trace, fault-plan
// and signal-delivery branches allocate.
//
//hot:noalloc
func (t *Thread) Syscall(num int, a *SyscallArgs) SyscallRet {
	k := t.k
	if a == nil {
		a = emptySyscallArgs
	}
	// The persona table is fetched once and reused for trace naming,
	// dispatch, and fault keying; persona cannot change between here and
	// dispatch (only the handler itself — set_persona — switches it).
	table := k.tables[t.Persona.Current()]
	// Trace bookkeeping observes virtual time but never charges it. The
	// persona and name are captured at entry: set_persona switches the
	// thread's persona mid-call, and attribution belongs to the table that
	// served the trap. exit/execve unwind the Proc instead of returning, so
	// they leave an enter record with no matching exit — as real ktrace does.
	tr := k.tracer
	var trStart time.Duration
	var trPersona persona.Kind
	var trName string
	if tr != nil {
		trStart = t.proc.Now()
		trPersona = t.Persona.Current()
		named := false
		if table != nil {
			trName, named = table.name(num)
		}
		if !named {
			//lint:allow hotalloc: trace-only: a trap with no registered handler is named by its number
			trName = fmt.Sprintf("sys_%d", num)
		}
		tr.SyscallEnter(t.proc.Name(), t.proc.ID(), trPersona, num, trName, trStart)
	}
	// Entry costs are summed into one charge. The per-hop amounts are
	// unchanged — "extra persona checking and handling code run on every
	// syscall entry" (the 8.5% null-syscall overhead of Section 6.2) and the
	// table's trap-demux extra still accrue — but the scheduler sees one
	// Advance instead of three, one preemption checkpoint per trap side.
	// No state changes or trace emissions ever sat between these charges,
	// so every Proc's virtual clock (and every figure) is bit-identical.
	entryCost := k.costs.SyscallEntry
	if k.PersonaAware() {
		entryCost += k.costs.PersonaCheck
	}
	if table == nil {
		// No ABI provisioned for this persona on this kernel (e.g. an iOS
		// binary trapping into vanilla Linux).
		t.Charge(entryCost + k.costs.SyscallExit)
		if tr != nil {
			tr.SyscallExit(t.proc.Name(), t.proc.ID(), trPersona, num, trName,
				int(ENOSYS), trStart, t.proc.Now())
		}
		return SyscallRet{R0: ^uint64(0), Errno: ENOSYS}
	}
	if table.Translates {
		entryCost += k.costs.XNUTrapDemux + k.costs.XNUArgTranslate
	}
	t.Charge(entryCost)
	h, ok := table.Lookup(num)
	var ret SyscallRet
	injected := false
	if in := k.fault; in != nil && ok {
		// Crash injection first: an OpCrash rule keyed by the task's
		// executable path queues a fatal signal instead of running the
		// handler; the signal is delivered on this trap's return path
		// (checkSignals below), where the exception bridge and default
		// disposition apply as for any organic fault.
		if in.Has(fault.OpCrash) {
			if out, fire := in.Crash(t.proc.Now(), t.task.path); fire {
				if out.Delay > 0 {
					t.Charge(out.Delay)
				}
				sig := out.Errno
				if sig <= 0 || sig >= nsig {
					sig = sigSEGV
				}
				t.sigPending = append(t.sigPending, sig)
				ret = SyscallRet{R0: ^uint64(0), Errno: EINTR}
				injected = true
			}
		}
		// Fault injection happens at dispatch, after entry costs: an
		// injected errno still pays the full trap cost (plus any modeled
		// latency spike), exactly like a real early-EINTR return would.
		// The "persona/name" decision key is only materialized when the
		// plan actually carries syscall rules; the common uninjected run
		// never concatenates strings here.
		if !injected && in.Has(fault.OpSyscall) {
			name, _ := table.name(num)
			//lint:allow hotalloc: fault-plan-only: the decision key is built only when the plan has syscall rules
			key := t.Persona.Current().String() + "/" + name
			if out, fire := in.Syscall(t.proc.Now(), key); fire {
				if out.Delay > 0 {
					t.Charge(out.Delay)
				}
				if out.Errno != 0 {
					ret = SyscallRet{R0: ^uint64(0), Errno: Errno(out.Errno)}
					injected = true
				}
			}
		}
	}
	switch {
	case injected:
	case !ok:
		ret = SyscallRet{R0: ^uint64(0), Errno: ENOSYS}
	default:
		t.inSyscall = true
		ret = h(t, a)
		t.inSyscall = false
	}
	// Exit costs batched the same way as entry costs. The translation
	// charge follows the table fetched at entry, not the persona now:
	// set_persona switches the persona in the middle of its own call.
	exitCost := k.costs.SyscallExit
	if table.Translates {
		exitCost += k.costs.XNURetTranslate
	}
	t.Charge(exitCost)
	if ret.Errno != OK {
		// Post errno to the current persona's TLS area, in that persona's
		// own numbering.
		e := int(ret.Errno)
		if t.Persona.Current() == persona.IOS {
			e = int(ErrnoToXNU(ret.Errno))
		}
		t.Persona.CurrentTLS().Errno = e
	}
	// Signal delivery happens on the syscall return path, so its cost is
	// part of the trap the histogram attributes it to (lmbench's lat_sig
	// measures exactly this: kill + delivery in one round trip).
	//lint:allow hotalloc: signal delivery runs only with a signal pending, and only a fatal default disposition (task exit) allocates
	t.checkSignals()
	if tr != nil {
		tr.SyscallExit(t.proc.Name(), t.proc.ID(), trPersona, num, trName,
			int(ret.Errno), trStart, t.proc.Now())
	}
	return ret
}

// linuxTables are the process-wide Linux syscall tables, each built once
// on first use and read-only afterwards: index 0 serves kernels without
// personas, index 1 persona-aware (Cider) kernels, whose table also
// registers set_persona.
var linuxTables = [2]func() *SyscallTable{
	sync.OnceValue(func() *SyscallTable { return buildLinuxTable(false) }),
	sync.OnceValue(func() *SyscallTable { return buildLinuxTable(true) }),
}

// LinuxTable returns the shared native Linux syscall table. Kernels
// install it for the Android persona with SetSyscallTable; personaAware
// selects the Cider variant with set_persona registered.
func LinuxTable(personaAware bool) *SyscallTable {
	if personaAware {
		return linuxTables[1]()
	}
	return linuxTables[0]()
}

// buildLinuxTable builds one Linux table. Handlers reach their kernel
// through the trapping thread, so one table serves every kernel.
func buildLinuxTable(personaAware bool) *SyscallTable {
	tb := NewSyscallTable("linux")
	tb.Register(SysExit, "exit", func(t *Thread, a *SyscallArgs) SyscallRet {
		t.exitTask(int(a.I[0]))
		return SyscallRet{}
	})
	tb.Register(SysFork, "fork", func(t *Thread, a *SyscallArgs) SyscallRet {
		if a.ChildFn == nil {
			return SyscallRet{Errno: EINVAL}
		}
		pid, errno := t.forkInternal(a.ChildFn)
		return SyscallRet{R0: uint64(pid), Errno: errno}
	})
	tb.Register(SysRead, "read", func(t *Thread, a *SyscallArgs) SyscallRet {
		f, errno := t.task.fds.Get(int(a.I[0]))
		if errno != OK {
			return SyscallRet{Errno: errno}
		}
		t.Charge(t.k.costs.ReadBase)
		n, errno := f.Read(t, a.Buf)
		return SyscallRet{R0: uint64(n), Errno: errno}
	})
	tb.Register(SysWrite, "write", func(t *Thread, a *SyscallArgs) SyscallRet {
		f, errno := t.task.fds.Get(int(a.I[0]))
		if errno != OK {
			return SyscallRet{Errno: errno}
		}
		t.Charge(t.k.costs.WriteBase)
		n, errno := f.Write(t, a.Buf)
		return SyscallRet{R0: uint64(n), Errno: errno}
	})
	tb.Register(SysOpen, "open", func(t *Thread, a *SyscallArgs) SyscallRet {
		fd, errno := t.openInternal(a.Path, int(a.I[1]))
		return SyscallRet{R0: uint64(fd), Errno: errno}
	})
	tb.Register(SysClose, "close", func(t *Thread, a *SyscallArgs) SyscallRet {
		t.Charge(t.k.costs.CloseBase)
		return SyscallRet{Errno: t.task.fds.Close(t, int(a.I[0]))}
	})
	tb.Register(SysCreat, "creat", func(t *Thread, a *SyscallArgs) SyscallRet {
		fd, errno := t.creatInternal(a.Path)
		return SyscallRet{R0: uint64(fd), Errno: errno}
	})
	tb.Register(SysUnlink, "unlink", func(t *Thread, a *SyscallArgs) SyscallRet {
		return SyscallRet{Errno: t.unlinkInternal(a.Path)}
	})
	tb.Register(SysExecve, "execve", func(t *Thread, a *SyscallArgs) SyscallRet {
		errno := t.execInternal(a.Path, a.Argv)
		return SyscallRet{Errno: errno} // reached only on failure
	})
	tb.Register(SysGetpid, "getpid", func(t *Thread, a *SyscallArgs) SyscallRet {
		//lint:allow chargecheck: getpid is the null syscall: its cost is exactly the dispatcher entry/exit charges (Fig. 5)
		return SyscallRet{R0: uint64(t.task.pid)}
	})
	tb.Register(SysGetppid, "getppid", func(t *Thread, a *SyscallArgs) SyscallRet {
		//lint:allow chargecheck: getppid is a null syscall like getpid: dispatcher entry/exit charges only
		return SyscallRet{R0: uint64(t.task.PPID())}
	})
	tb.Register(SysKill, "kill", func(t *Thread, a *SyscallArgs) SyscallRet {
		return SyscallRet{Errno: t.killInternal(int(a.I[0]), int(a.I[1]))}
	})
	tb.Register(SysPipe, "pipe", func(t *Thread, a *SyscallArgs) SyscallRet {
		r, w, errno := t.pipeInternal()
		return SyscallRet{R0: uint64(r), R1: uint64(w), Errno: errno}
	})
	tb.Register(SysDup, "dup", func(t *Thread, a *SyscallArgs) SyscallRet {
		fd, errno := t.task.fds.Dup(int(a.I[0]))
		return SyscallRet{R0: uint64(fd), Errno: errno}
	})
	tb.Register(SysIoctl, "ioctl", func(t *Thread, a *SyscallArgs) SyscallRet {
		f, errno := t.task.fds.Get(int(a.I[0]))
		if errno != OK {
			return SyscallRet{Errno: errno}
		}
		t.Charge(t.k.costs.IoctlBase)
		r, errno := f.Ioctl(t, a.I[1], a.I[2])
		return SyscallRet{R0: r, Errno: errno}
	})
	tb.Register(SysSelect, "select", func(t *Thread, a *SyscallArgs) SyscallRet {
		if a.Select == nil {
			return SyscallRet{Errno: EINVAL}
		}
		res, errno := t.selectInternal(a.Select)
		ret := SyscallRet{Errno: errno, Select: res}
		if res != nil {
			ret.R0 = uint64(res.N())
		}
		return ret
	})
	tb.Register(SysRtSigaction, "rt_sigaction", func(t *Thread, a *SyscallArgs) SyscallRet {
		return SyscallRet{Errno: t.sigactionInternal(int(a.I[0]), a.Act)}
	})
	tb.Register(SysWait4, "wait4", func(t *Thread, a *SyscallArgs) SyscallRet {
		pid, status, errno := t.waitInternal(int(int64(a.I[0])))
		return SyscallRet{R0: uint64(pid), R1: uint64(status), Errno: errno}
	})
	tb.Register(SysSocketpair, "socketpair", func(t *Thread, a *SyscallArgs) SyscallRet {
		f1, f2, errno := t.socketpairInternal()
		return SyscallRet{R0: uint64(f1), R1: uint64(f2), Errno: errno}
	})
	tb.Register(SysGetrlimit, "getrlimit", func(t *Thread, a *SyscallArgs) SyscallRet {
		lim, errno := t.getrlimitInternal(int(a.I[0]))
		if errno != OK {
			return SyscallRet{Errno: errno}
		}
		return SyscallRet{R0: lim.Cur, R1: lim.Max}
	})
	tb.Register(SysSetrlimit, "setrlimit", func(t *Thread, a *SyscallArgs) SyscallRet {
		return SyscallRet{Errno: t.setrlimitInternal(int(a.I[0]), RLimit{Cur: a.I[1], Max: a.I[2]})}
	})
	if personaAware {
		tb.Register(SysSetPersona, "set_persona", sysSetPersona)
	}
	return tb
}

// sysSetPersona implements Cider's new set_persona syscall: switch the
// calling thread's kernel ABI personality and TLS area pointer
// (Section 4.3, component 2). Registered in every persona's table.
func sysSetPersona(t *Thread, a *SyscallArgs) SyscallRet {
	to := persona.Kind(a.I[0])
	if to < 0 || int(to) >= persona.NumKinds {
		return SyscallRet{Errno: EINVAL}
	}
	t.Charge(t.k.costs.SetPersonaCost)
	prev := t.Persona.Switch(to)
	return SyscallRet{R0: uint64(prev)}
}

// setPersonaArgs holds set_persona's argument registers for every target
// persona, and badPersonaArgs one out-of-range target. sysSetPersona reads
// only I[0], and the XNU table registers it untranslated, so every trap
// shares these read-only values instead of building its own.
var (
	setPersonaArgs = func() (a [persona.NumKinds]SyscallArgs) {
		for k := range a {
			a[k].I[0] = uint64(k)
		}
		return a
	}()
	badPersonaArgs = SyscallArgs{I: [6]uint64{uint64(persona.NumKinds)}}
)

// SetPersona traps into set_persona through syscall number num, switching
// the thread to persona to. The number names the table the trap enters
// by: kernel.SysSetPersona from the Linux table, the XNU table's own
// number from iOS. An out-of-range persona still pays the trap and fails
// with EINVAL.
//
//hot:noalloc
func (t *Thread) SetPersona(num int, to persona.Kind) SyscallRet {
	a := &badPersonaArgs
	if to >= 0 && int(to) < persona.NumKinds {
		a = &setPersonaArgs[to]
	}
	return t.Syscall(num, a)
}

// openInternal resolves a path and produces a descriptor: regular files
// get an fsFile; device nodes dispatch to the device framework.
func (t *Thread) openInternal(path string, flags int) (int, Errno) {
	k := t.k
	t.Charge(k.costs.OpenBase)
	node, err := k.root.Lookup(path)
	if err != nil {
		if _, missing := err.(*vfs.ErrNotFound); missing && flags&OCreat != 0 {
			return t.creatInternal(path)
		}
		return -1, ErrnoFromVFS(err)
	}
	if node.IsDir() {
		return -1, EISDIR
	}
	if node.Kind() == vfs.KindDevice {
		dev, ok := node.Dev().(Device)
		if !ok {
			return -1, EIO
		}
		f, errno := dev.Open(t)
		if errno != OK {
			return -1, errno
		}
		return t.task.fds.Alloc(f)
	}
	return t.task.fds.Alloc(&fsFile{node: node, k: k})
}

// OCreat is the open flag requesting creation.
const OCreat = 0x40 // Linux O_CREAT

// creatInternal creates a file (truncating an existing one) and opens it.
func (t *Thread) creatInternal(path string) (int, Errno) {
	k := t.k
	t.Charge(k.costs.CreateBase)
	t.Charge(k.device.Storage.CreateLatency)
	node, err := k.root.Create(path)
	if err != nil {
		if _, exists := err.(*vfs.ErrExists); !exists {
			return -1, ErrnoFromVFS(err)
		}
		n2, lerr := k.root.Lookup(path)
		if lerr != nil {
			return -1, ErrnoFromVFS(lerr)
		}
		if n2.IsDir() {
			return -1, EISDIR
		}
		n2.SetData(nil) // truncate
		return t.task.fds.Alloc(&fsFile{node: n2, k: k})
	}
	return t.task.fds.Alloc(&fsFile{node: node, k: k})
}

// unlinkInternal removes a file.
func (t *Thread) unlinkInternal(path string) Errno {
	k := t.k
	t.Charge(k.costs.UnlinkBase)
	t.Charge(k.device.Storage.DeleteLatency)
	if err := k.root.Remove(path); err != nil {
		return ErrnoFromVFS(err)
	}
	return OK
}
