// Package kernel implements the simulated domestic kernel: a Linux-like
// core (tasks, threads, fork/exec/wait, signals, pipes, sockets, select,
// file descriptors, device framework) that Cider extends with per-thread
// personas, a Mach-O binary loader, and an XNU syscall/signal ABI
// (Section 4.1 of the paper).
//
// The same package also models the XNU kernel running natively on the iPad
// mini — the fourth experimental configuration — by swapping the cost
// profile and the set of registered binary loaders.
package kernel

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/persona"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Profile selects which kernel the simulation boots — the three system
// configurations of Section 6 (vanilla Android, Cider, iOS/XNU).
type Profile int

const (
	// ProfileLinuxVanilla is an unmodified Android/Linux kernel: Linux ABI
	// only, no persona support, ELF binaries only.
	ProfileLinuxVanilla Profile = iota
	// ProfileCider is the Cider-enhanced Linux kernel: persona-aware
	// syscall entry, Mach-O + ELF loaders, XNU ABI, duct-taped subsystems.
	ProfileCider
	// ProfileXNUNative is the XNU kernel as shipped on the iPad mini:
	// Mach-O binaries only, native XNU ABI, no persona machinery.
	ProfileXNUNative
)

func (p Profile) String() string {
	switch p {
	case ProfileLinuxVanilla:
		return "linux-vanilla"
	case ProfileCider:
		return "cider"
	case ProfileXNUNative:
		return "xnu-native"
	}
	return fmt.Sprintf("profile(%d)", int(p))
}

// Costs is the kernel operation cost table. Values are durations on the
// target device; constructors derive them from CPU cycle counts calibrated
// against the absolute numbers the paper reports (245 µs fork+exit, 8.5%
// null-syscall overhead, and so on — see DESIGN.md §5).
type Costs struct {
	// SyscallEntry/SyscallExit bound every trap.
	SyscallEntry time.Duration
	SyscallExit  time.Duration
	// PersonaCheck is the extra persona lookup Cider adds to every syscall
	// entry (the 8.5% null-syscall overhead; zero on vanilla kernels).
	PersonaCheck time.Duration
	// XNUTrapDemux, XNUArgTranslate and XNURetTranslate are the per-call
	// costs of running a foreign (XNU) syscall on the Linux kernel: trap
	// class demultiplexing, argument structure mapping, and return/CPU-flag
	// convention conversion (the additional 40%-8.5% of null-syscall
	// overhead for iOS binaries). All zero when the ABI is native.
	XNUTrapDemux    time.Duration
	XNUArgTranslate time.Duration
	XNURetTranslate time.Duration

	// SignalDeliverBase is the kernel cost to deliver a signal and run the
	// handler trampoline. SignalPersonaLookup is Cider's target-persona
	// check (the 3% lat_sig overhead); SignalXNUTranslate and
	// SignalXNUFrame are the signal-number translation and the larger
	// XNU sigframe copy for iOS-persona threads (the 25% overhead).
	SignalDeliverBase   time.Duration
	SignalPersonaLookup time.Duration
	SignalXNUTranslate  time.Duration
	SignalXNUFrame      time.Duration
	// SigactionBase covers installing a handler.
	SigactionBase time.Duration

	// ForkBase is fork's fixed cost; PTECopy is added per mapped page
	// (~23k pages of dylibs is what makes iOS fork 14x slower, §6.2).
	ForkBase time.Duration
	PTECopy  time.Duration
	// ExecTeardown is charged per owned page when exec discards the old
	// image (PTE/TLB teardown) — part of why exec'ing out of a 90 MB iOS
	// process is costly.
	ExecTeardown time.Duration
	// MachPortInit is Cider's per-fork Mach IPC task-port initialization
	// ("some extra work in Mach IPC initialization" — small).
	MachPortInit time.Duration
	// ExecBase is execve's fixed cost; SegmentMap is added per loadable
	// segment; BinfmtProbe per loader probed.
	ExecBase    time.Duration
	SegmentMap  time.Duration
	BinfmtProbe time.Duration
	// ExitBase and WaitBase cover _exit and wait4.
	ExitBase time.Duration
	WaitBase time.Duration

	// PipeHop and UnixHop are the one-way costs of a byte through a pipe /
	// UNIX-domain socket (including the wakeup).
	PipeHop time.Duration
	UnixHop time.Duration
	// SelectBase and SelectPerFD model select(2); SelectMaxFDs, when
	// non-zero, is the largest descriptor count the kernel accepts (the
	// iPad's select "simply failed to complete for 250 file descriptors").
	SelectBase   time.Duration
	SelectPerFD  time.Duration
	SelectMaxFDs int

	// File-descriptor layer CPU costs (storage device time is charged
	// separately from the hw.StorageModel).
	OpenBase   time.Duration
	CloseBase  time.Duration
	ReadBase   time.Duration
	WriteBase  time.Duration
	CreateBase time.Duration
	UnlinkBase time.Duration
	IoctlBase  time.Duration

	// SetPersonaCost is the kernel cost of the set_persona syscall beyond
	// normal entry/exit (ABI + TLS pointer swap) — half of a diplomatic
	// function's round trip.
	SetPersonaCost time.Duration

	// RlimitBase covers a getrlimit/setrlimit beyond entry/exit.
	RlimitBase time.Duration
	// PressureNotify is charged per memory-pressure handler delivery;
	// JetsamKill covers one memorystatus kill (victim selection slice,
	// report write, SIGKILL post). Both are charged to the thread whose
	// allocation crossed the watermark — the shrinker convention.
	PressureNotify time.Duration
	JetsamKill     time.Duration
}

// cyc converts cycles on cpu to a duration.
func cyc(cpu *hw.CPUModel, n float64) time.Duration { return cpu.Cycles(n) }

// NewLinuxCosts builds the cost table for a vanilla Linux/Android kernel on
// the given CPU. Cycle counts are calibrated so the Nexus 7 reproduces the
// paper's absolute anchors (null syscall ≈ 0.44 µs, fork+exit ≈ 245 µs for
// a small static binary, fork+exec ≈ 590 µs).
func NewLinuxCosts(cpu *hw.CPUModel) *Costs {
	return &Costs{
		SyscallEntry: cyc(cpu, 280),
		SyscallExit:  cyc(cpu, 250),

		SignalDeliverBase: cyc(cpu, 5200),
		SigactionBase:     cyc(cpu, 900),

		ForkBase:     cyc(cpu, 273000), // ~210 µs @1.3GHz
		PTECopy:      cyc(cpu, 56),     // ~43 ns/page
		ExecTeardown: cyc(cpu, 36),     // ~28 ns/page
		ExecBase:     cyc(cpu, 300000),
		SegmentMap:   cyc(cpu, 5200),
		BinfmtProbe:  cyc(cpu, 1300),
		ExitBase:     cyc(cpu, 26000),
		WaitBase:     cyc(cpu, 6500),

		PipeHop: cyc(cpu, 33800),
		UnixHop: cyc(cpu, 40300),

		SelectBase:  cyc(cpu, 6500),
		SelectPerFD: cyc(cpu, 195),

		OpenBase:   cyc(cpu, 3900),
		CloseBase:  cyc(cpu, 1300),
		ReadBase:   cyc(cpu, 780),
		WriteBase:  cyc(cpu, 780),
		CreateBase: cyc(cpu, 5200),
		UnlinkBase: cyc(cpu, 4550),
		IoctlBase:  cyc(cpu, 1040),

		RlimitBase:     cyc(cpu, 520),
		PressureNotify: cyc(cpu, 3900),
		JetsamKill:     cyc(cpu, 65000),
	}
}

// NewCiderCosts builds the cost table for the Cider-enhanced kernel: the
// Linux table plus persona checking on every syscall entry, XNU translation
// costs for foreign threads, signal persona handling, Mach task-port
// initialization on fork, and the set_persona syscall.
func NewCiderCosts(cpu *hw.CPUModel) *Costs {
	c := NewLinuxCosts(cpu)
	c.PersonaCheck = cyc(cpu, 47) // ≈8.5% of a 0.44µs null syscall

	c.XNUTrapDemux = cyc(cpu, 55)
	c.XNUArgTranslate = cyc(cpu, 75)
	c.XNURetTranslate = cyc(cpu, 42)

	c.SignalPersonaLookup = cyc(cpu, 160) // ≈3% of lat_sig
	c.SignalXNUTranslate = cyc(cpu, 390)
	c.SignalXNUFrame = cyc(cpu, 780) // larger sigframe copy

	c.MachPortInit = cyc(cpu, 2600)
	c.SetPersonaCost = cyc(cpu, 650)
	return c
}

// NewXNUNativeCosts builds the cost table for the XNU kernel on the iPad
// mini. Syscall entry is comparable to Linux, but select degrades sharply
// with descriptor count and rejects large sets, and local IPC is slower —
// matching the Fig. 5 local-communication group.
func NewXNUNativeCosts(cpu *hw.CPUModel) *Costs {
	return &Costs{
		SyscallEntry: cyc(cpu, 300),
		SyscallExit:  cyc(cpu, 270),

		SignalDeliverBase: cyc(cpu, 12800), // 175% above Cider's lat_sig
		SigactionBase:     cyc(cpu, 1000),

		// fork is cheap for iOS binaries here because dyld's shared cache
		// maps one prelinked region instead of 115 dylibs (see
		// internal/dyld); the kernel-side constants are ordinary.
		ForkBase:     cyc(cpu, 230000),
		PTECopy:      cyc(cpu, 60),
		ExecTeardown: cyc(cpu, 38),
		ExecBase:     cyc(cpu, 280000),
		SegmentMap:   cyc(cpu, 5000),
		BinfmtProbe:  cyc(cpu, 1200),
		ExitBase:     cyc(cpu, 25000),
		WaitBase:     cyc(cpu, 6000),

		PipeHop: cyc(cpu, 46000),
		UnixHop: cyc(cpu, 56000),

		// The select test's "overhead increased linearly with the number of
		// file descriptors to more than 10 times the cost" on the iPad, and
		// it fails outright at 250 descriptors.
		SelectBase:   cyc(cpu, 9000),
		SelectPerFD:  cyc(cpu, 4200),
		SelectMaxFDs: 248,

		OpenBase:   cyc(cpu, 4500),
		CloseBase:  cyc(cpu, 1500),
		ReadBase:   cyc(cpu, 900),
		WriteBase:  cyc(cpu, 900),
		CreateBase: cyc(cpu, 6000),
		UnlinkBase: cyc(cpu, 5200),
		IoctlBase:  cyc(cpu, 1100),

		RlimitBase: cyc(cpu, 560),
		// Native memorystatus: the original implementation this package
		// re-hosts, with the same shape but A5 cycle counts.
		PressureNotify: cyc(cpu, 4200),
		JetsamKill:     cyc(cpu, 70000),
	}
}

// Config assembles a kernel instance.
type Config struct {
	// Profile selects the kernel personality.
	Profile Profile
	// Device is the hardware the kernel runs on.
	Device *hw.Device
	// Root is the root filesystem.
	Root vfs.FileSystem
	// Registry resolves simulated program code.
	Registry *prog.Registry
	// Costs overrides the profile's default cost table when non-nil.
	Costs *Costs
}

// Kernel is one booted kernel instance.
type Kernel struct {
	sim      *sim.Sim
	profile  Profile
	device   *hw.Device
	root     vfs.FileSystem
	registry *prog.Registry
	costs    *Costs

	nextPID int
	tasks   map[int]*Task

	binfmts []BinFmt

	// tables maps persona -> syscall dispatch table. Vanilla kernels have
	// a single native table.
	tables [persona.NumKinds]*SyscallTable

	devices map[string]Device
	// deviceAddHooks fire on every AddDevice — the hook Cider uses to
	// create I/O Kit registry entries for Linux devices (Section 5.1).
	deviceAddHooks []func(Device)

	// extensions holds duct-taped subsystem state (Mach IPC tables, psynch
	// state, I/O Kit registry) keyed by subsystem name.
	extensions map[string]any

	// tracer, when non-nil, receives syscall records, signal events and
	// library-layer counters. Trace hooks never charge virtual time, so
	// attaching a tracer cannot change measured latencies.
	tracer *trace.Session

	// fault, when non-nil, injects deterministic failures at syscall
	// dispatch, blocking waits, memory mapping, and (via the extensions)
	// Mach IPC. See internal/fault and EnableFaults.
	fault *fault.Injector

	// exitHooks run for the exiting thread of every task exit, after the
	// task's own resources (fds, mappings) are released but before the
	// task becomes a zombie. Kernel extensions use them to tear down
	// per-task state (Mach port spaces).
	exitHooks []func(*Thread)

	// excBridge, when non-nil, is consulted before the default-terminate
	// disposition of a fatal signal on an iOS-persona thread. Returning
	// true means the exception was handled and the thread resumes.
	excBridge ExceptionBridge

	// memstat is the jetsam/memorystatus resource-governance subsystem;
	// always non-nil after New.
	memstat *Memorystatus
}

// ExceptionBridge translates a fatal canonical signal on an iOS-persona
// thread into a Mach exception message (EXC_BAD_ACCESS and friends) and
// reports whether a catcher handled it. The kernel cannot import the xnu
// extension, so xnu.InstallIPC wires the bridge in.
type ExceptionBridge func(t *Thread, sig int) bool

// New boots a kernel on the given simulator.
func New(s *sim.Sim, cfg Config) (*Kernel, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("kernel: config needs a device")
	}
	if cfg.Root == nil {
		return nil, fmt.Errorf("kernel: config needs a root filesystem")
	}
	if cfg.Registry == nil {
		cfg.Registry = prog.NewRegistry()
	}
	costs := cfg.Costs
	if costs == nil {
		switch cfg.Profile {
		case ProfileCider:
			costs = NewCiderCosts(cfg.Device.CPU)
		case ProfileXNUNative:
			costs = NewXNUNativeCosts(cfg.Device.CPU)
		default:
			costs = NewLinuxCosts(cfg.Device.CPU)
		}
	}
	k := &Kernel{
		sim:        s,
		profile:    cfg.Profile,
		device:     cfg.Device,
		root:       cfg.Root,
		registry:   cfg.Registry,
		costs:      costs,
		nextPID:    1,
		tasks:      make(map[int]*Task),
		devices:    make(map[string]Device),
		extensions: make(map[string]any),
	}
	k.memstat = newMemorystatus(k)
	return k, nil
}

// Sim returns the simulator the kernel runs on.
func (k *Kernel) Sim() *sim.Sim { return k.sim }

// Profile returns the kernel personality.
func (k *Kernel) Profile() Profile { return k.profile }

// Device returns the hardware profile.
func (k *Kernel) Device() *hw.Device { return k.device }

// Root returns the root filesystem.
func (k *Kernel) Root() vfs.FileSystem { return k.root }

// Registry returns the simulated-code registry.
func (k *Kernel) Registry() *prog.Registry { return k.registry }

// Costs returns the kernel cost table (mutable for ablation benches).
func (k *Kernel) Costs() *Costs { return k.costs }

// SetTracer attaches (or, with nil, detaches) a trace session.
func (k *Kernel) SetTracer(tr *trace.Session) { k.tracer = tr }

// Tracer returns the attached trace session, or nil when tracing is off.
// Library layers (diplomat, dyld, abi) read it dynamically so they need
// no wiring of their own.
func (k *Kernel) Tracer() *trace.Session { return k.tracer }

// EnableFaults attaches (or, with nil, detaches) a fault injector. The
// injector drives syscall-dispatch errno injection, allocation failure in
// task address spaces, and blocking-wait interruption via the simulator's
// interrupt hook; kernel extensions (Mach IPC) read it dynamically.
func (k *Kernel) EnableFaults(in *fault.Injector) {
	k.fault = in
	if in == nil {
		k.sim.SetInterruptHook(nil)
		return
	}
	k.sim.SetInterruptHook(func(p *sim.Proc, reason string) bool {
		return in.Interrupt(p.Now(), reason)
	})
}

// FaultInjector returns the attached fault injector, or nil.
func (k *Kernel) FaultInjector() *fault.Injector { return k.fault }

// errMapInjected is the sentinel mem.Map failure the fault layer produces;
// callers surface it as ENOMEM like any other allocation failure.
var errMapInjected = fmt.Errorf("mem: injected allocation failure")

// errMapLimit is the mem.Map failure rlimit enforcement produces; callers
// surface it as ENOMEM, exactly as a real RLIMIT_AS rejection does.
var errMapLimit = fmt.Errorf("mem: mapping exceeds resource limit")

// mapHook is installed (closed over its task) as every address space's
// MapHook: fault injection first, then RLIMIT_AS over the whole mapped
// span and RLIMIT_DATA over anonymous (non-file-named) mappings. The
// fault half is inert until an injector is attached and outside simulated
// execution (boot-time image assembly must not fault); the rlimit half
// always enforces — limits default to infinity, so it costs a task
// nothing until it lowers them.
func (k *Kernel) mapHook(tk *Task, size uint64, name string) error {
	if in := k.fault; in != nil {
		if p := k.sim.Current(); p != nil {
			if out, ok := in.MemMap(p.Now(), name); ok {
				if out.Delay > 0 {
					p.Advance(out.Delay)
				}
				if out.Errno != 0 {
					return errMapInjected
				}
			}
		}
	}
	span := mem.PageAlign(size)
	if lim := tk.rlimits[RLimitAS].Cur; lim != RLimInfinity && tk.mem.MappedBytes()+span > lim {
		k.countRlimitHit()
		return errMapLimit
	}
	if lim := tk.rlimits[RLimitData].Cur; lim != RLimInfinity && len(name) > 0 && name[0] != '/' {
		var anon uint64
		for _, r := range tk.mem.Regions() {
			if len(r.Name) == 0 || r.Name[0] != '/' {
				anon += r.Size
			}
		}
		if anon+span > lim {
			k.countRlimitHit()
			return errMapLimit
		}
	}
	return nil
}

// countRlimitHit bumps the rlimit-enforcement counter.
func (k *Kernel) countRlimitHit() {
	if tr := k.tracer; tr != nil {
		tr.Count(trace.CounterRlimitHits, 1)
	}
}

// bindMemHooks points a task's address-space hooks at its owner: the map
// hook enforces faults and rlimits for this task, the footprint hook
// feeds the memorystatus ladder. Fork replaces the child's address space
// wholesale, so forkInternal re-binds.
func (k *Kernel) bindMemHooks(tk *Task) {
	tk.mem.MapHook = func(size uint64, name string) error {
		return k.mapHook(tk, size, name)
	}
	tk.mem.FootprintHook = func(delta int64) {
		k.memstat.footprintDelta(tk, delta)
	}
}

// OnTaskExit registers a hook run for every task exit, after the task's
// fds and mappings are released but before it turns zombie.
func (k *Kernel) OnTaskExit(h func(*Thread)) {
	k.exitHooks = append(k.exitHooks, h)
}

// SetExceptionBridge installs the Mach exception bridge consulted before
// fatal default dispositions on iOS-persona threads (see ExceptionBridge).
func (k *Kernel) SetExceptionBridge(b ExceptionBridge) { k.excBridge = b }

// Zombies returns the pids of unreaped zombie tasks, sorted — test and
// leak-check support.
func (k *Kernel) Zombies() []int {
	var out []int
	for pid, tk := range k.tasks {
		if tk.state == taskZombie {
			out = append(out, pid)
		}
	}
	sort.Ints(out)
	return out
}

// PersonaAware reports whether the kernel tracks per-thread personas
// (Cider only).
func (k *Kernel) PersonaAware() bool { return k.profile == ProfileCider }

// NativePersona is the persona whose ABI matches the kernel natively.
func (k *Kernel) NativePersona() persona.Kind {
	if k.profile == ProfileXNUNative {
		return persona.IOS
	}
	return persona.Android
}

// RegisterBinFmt appends a binary-format loader; exec probes loaders in
// registration order, as Linux binfmt handlers chain.
func (k *Kernel) RegisterBinFmt(b BinFmt) {
	k.binfmts = append(k.binfmts, b)
}

// SetSyscallTable installs the dispatch table for a persona. The Cider
// kernel "maintains one or more syscall dispatch tables for each persona,
// and switches among them based on the persona of the calling thread"
// (Section 4.1).
func (k *Kernel) SetSyscallTable(kind persona.Kind, t *SyscallTable) {
	k.tables[kind] = t
}

// SyscallTableFor returns the dispatch table serving a persona.
func (k *Kernel) SyscallTableFor(kind persona.Kind) *SyscallTable {
	return k.tables[kind]
}

// Task returns the task with the given pid, or nil.
func (k *Kernel) Task(pid int) *Task { return k.tasks[pid] }

// Tasks returns the number of live tasks.
func (k *Kernel) Tasks() int { return len(k.tasks) }

// SetExtension attaches duct-taped subsystem state to the kernel image.
func (k *Kernel) SetExtension(name string, v any) { k.extensions[name] = v }

// Extension retrieves duct-taped subsystem state.
func (k *Kernel) Extension(name string) (any, bool) {
	v, ok := k.extensions[name]
	return v, ok
}

// Device framework ------------------------------------------------------

// Device is a kernel device-framework object (the Linux side of
// Section 5.1's device bridge).
type Device interface {
	vfs.Device
	// Open produces a File for a /dev node open.
	Open(t *Thread) (File, Errno)
}

// AddDevice registers a device, creates its /dev node, and fires the
// device-add hooks ("a small hook in the Linux device_add function",
// Section 5.1).
func (k *Kernel) AddDevice(dev Device) error {
	name := dev.DevName()
	if _, ok := k.devices[name]; ok {
		return fmt.Errorf("kernel: device %q already registered", name)
	}
	k.devices[name] = dev
	if err := k.root.MkdirAll("/dev"); err != nil {
		return err
	}
	if err := k.root.Mknod("/dev/"+name, dev); err != nil {
		return err
	}
	for _, h := range k.deviceAddHooks {
		h(dev)
	}
	return nil
}

// OnDeviceAdd registers a hook called for every device added afterwards
// and, immediately, for every device already present in sorted name
// order, so the entries a hook creates (I/O Kit registry IDs) are the
// same on every boot.
func (k *Kernel) OnDeviceAdd(h func(Device)) {
	k.deviceAddHooks = append(k.deviceAddHooks, h)
	names := make([]string, 0, len(k.devices))
	for n := range k.devices {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h(k.devices[n])
	}
}

// FindDevice returns a registered device by name.
func (k *Kernel) FindDevice(name string) (Device, bool) {
	d, ok := k.devices[name]
	return d, ok
}
