package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bionic"
	"repro/internal/core"
	"repro/internal/dalvik"
	"repro/internal/graphics"
	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/xnu"
)

// cost is the host cost of one operation.
type cost struct{ ns, allocs, bytes float64 }

// measure times n calls of op and returns the per-call host cost.
func measure(n int, op func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return cost{
		ns:     float64(elapsed.Nanoseconds()) / float64(n),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
	}
}

// probe measures one layer mechanism through its public functions, from
// a binary it installs itself.
type probe struct {
	name string
	run  func() (cost, error)
}

// probeReps is how many times each probe runs; the median is reported.
const probeReps = 3

var probes = []probe{
	{"core.boot_vanilla", bootProbe(core.ConfigVanilla, 400)},
	{"core.boot_cider", bootProbe(core.ConfigCider, 100)},
	{"core.boot_ipad", bootProbe(core.ConfigIPad, 100)},
	{"kernel.trap_android", androidProbe(func(c *bionic.C) (cost, error) {
		return measure(50000, func() { c.GetPPID() }), nil
	})},
	{"kernel.trap_ios", iosProbe(nil, func(_ *core.System, c *libsystem.C) (cost, error) {
		return measure(50000, func() { c.GetPPID() }), nil
	})},
	{"kernel.fork_exit_android", androidProbe(func(c *bionic.C) (cost, error) {
		return forkLoop(300, func() (int, int) {
			pid := c.Fork(func(cc *bionic.C) { cc.Exit(0) })
			_, status, _ := c.Wait(pid)
			return pid, status
		})
	})},
	{"kernel.fork_exit_ios", iosProbe(nil, func(_ *core.System, c *libsystem.C) (cost, error) {
		return forkLoop(300, func() (int, int) {
			pid := c.Fork(func(cc *libsystem.C) { cc.Exit(0) })
			_, status, _ := c.Wait(pid)
			return pid, status
		})
	})},
	{"kernel.fork_exec_android", androidProbe(func(c *bionic.C) (cost, error) {
		return forkLoop(200, func() (int, int) {
			pid := c.Fork(func(cc *bionic.C) {
				cc.Exec(helloLinux, nil)
				cc.Exit(127)
			})
			_, status, _ := c.Wait(pid)
			return pid, status
		})
	})},
	{"kernel.fork_exec_ios", iosProbe(nil, func(_ *core.System, c *libsystem.C) (cost, error) {
		return forkLoop(30, func() (int, int) {
			pid := c.Fork(func(cc *libsystem.C) {
				cc.Exec(helloIOS, nil)
				cc.Exit(127)
			})
			_, status, _ := c.Wait(pid)
			return pid, status
		})
	})},
	{"sim.switch", switchProbe},
	{"diplomat.hop", iosProbe(func(sys *core.System) error {
		return sys.Registry.Register(noopKey, func(*prog.Call) uint64 { return 0 })
	}, func(sys *core.System, c *libsystem.C) (cost, error) {
		hop := sys.Diplomat.Wrap(noopKey)
		call := &prog.Call{Ctx: c.T}
		if hop(call) != 0 { // the first call resolves the symbol
			return cost{}, fmt.Errorf("diplomat: %s did not resolve", noopKey)
		}
		return measure(20000, func() { hop(call) }), nil
	})},
	{"graphics.gl_call", iosProbe(nil, func(_ *core.System, c *libsystem.C) (cost, error) {
		gl, err := graphics.BindIOSGL(c.T)
		if err != nil {
			return cost{}, err
		}
		ctx := gl.Call("_EAGLContextCreate")
		gl.Call("_EAGLContextSetCurrent", ctx)
		return measure(20000, func() { gl.Call("_glViewport", 0, 0, 1024, 768) }), nil
	})},
	{"dalvik.op", androidProbe(dalvikProbe)},
	{"vfs.write_seq", vfsProbe},
	{"xnu.mach_msg_rtt", iosProbe(nil, func(_ *core.System, c *libsystem.C) (cost, error) {
		port := c.MachReplyPort()
		if port == xnu.PortNull {
			return cost{}, fmt.Errorf("mach: no reply port")
		}
		var failed bool
		cst := measure(20000, func() {
			kr := c.MachSend(port, &xnu.Message{ID: 7, Body: []byte("pb")}, time.Millisecond)
			msg, rkr := c.MachReceive(port, time.Millisecond)
			if kr != xnu.KernSuccess || rkr != xnu.KernSuccess || msg == nil || msg.ID != 7 {
				failed = true
			}
		})
		if failed {
			return cost{}, fmt.Errorf("mach: a send/receive round trip failed")
		}
		return cst, nil
	})},
}

const (
	noopKey    = "perfbench-noop"
	helloLinux = "/bin/perfbench-hello-linux"
	helloIOS   = "/bin/perfbench-hello-ios"
	probePath  = "/bin/perfbench-probe"
)

func helloBody(*prog.Call) uint64 { return 0 }

// forkLoop times n fork/wait rounds; every child must exit with status 0.
func forkLoop(n int, round func() (pid, status int)) (cost, error) {
	var err error
	c := measure(n, func() {
		if pid, status := round(); (pid <= 0 || status != 0) && err == nil {
			err = fmt.Errorf("fork round: pid %d status %d", pid, status)
		}
	})
	return c, err
}

func bootProbe(cfg core.Config, n int) func() (cost, error) {
	return func() (cost, error) {
		var err error
		c := measure(n, func() {
			if _, berr := core.NewSystem(cfg); berr != nil {
				err = berr
			}
		})
		return c, err
	}
}

// runProbeBinary boots a Cider system, installs the hello payloads and a
// probe binary whose body is body, and runs the system to completion.
func runProbeBinary(ios bool, setup func(*core.System) error, body func(*core.System, *kernel.Thread) (cost, error)) (cost, error) {
	sys, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		return cost{}, err
	}
	if setup != nil {
		if err := setup(sys); err != nil {
			return cost{}, err
		}
	}
	if err := sys.InstallStaticAndroidBinary(helloLinux, "perfbench-hello-linux", helloBody); err != nil {
		return cost{}, err
	}
	if err := sys.InstallIOSBinary(helloIOS, "perfbench-hello-ios", nil, helloBody); err != nil {
		return cost{}, err
	}
	var c cost
	var berr error
	fn := func(call *prog.Call) uint64 {
		c, berr = body(sys, call.Ctx.(*kernel.Thread))
		return 0
	}
	if ios {
		err = sys.InstallIOSBinary(probePath, "perfbench-probe", nil, fn)
	} else {
		err = sys.InstallStaticAndroidBinary(probePath, "perfbench-probe", fn)
	}
	if err != nil {
		return cost{}, err
	}
	if _, err := sys.Start(probePath, nil); err != nil {
		return cost{}, err
	}
	if err := sys.Run(); err != nil {
		return cost{}, err
	}
	if c.ns == 0 && berr == nil {
		berr = fmt.Errorf("probe body did not run")
	}
	return c, berr
}

func androidProbe(body func(*bionic.C) (cost, error)) func() (cost, error) {
	return func() (cost, error) {
		return runProbeBinary(false, nil, func(_ *core.System, t *kernel.Thread) (cost, error) {
			return body(bionic.Sys(t))
		})
	}
}

func iosProbe(setup func(*core.System) error, body func(*core.System, *libsystem.C) (cost, error)) func() (cost, error) {
	return func() (cost, error) {
		return runProbeBinary(true, setup, func(sys *core.System, t *kernel.Thread) (cost, error) {
			return body(sys, libsystem.Sys(t))
		})
	}
}

// switchRounds is the park/wake round trips of one sim.switch probe; each
// is two run-token handoffs.
const switchRounds = 20000

// switchProbe bounces two Procs through park/wake, as cmd/simbench does,
// and reports the cost of one context switch.
func switchProbe() (cost, error) {
	var runErr error
	c := measure(1, func() {
		s := sim.New()
		var pa, pb *sim.Proc
		pa = s.Spawn("a", func(p *sim.Proc) {
			for j := 0; j < switchRounds; j++ {
				p.Advance(time.Microsecond)
				p.Wake(pb, sim.WakeNormal)
				if p.Park("pong") == sim.WakeInterrupted {
					return
				}
			}
			p.Wake(pb, sim.WakeInterrupted)
		})
		pb = s.Spawn("b", func(p *sim.Proc) {
			for p.Park("ping") != sim.WakeInterrupted {
				p.Advance(time.Microsecond)
				p.Wake(pa, sim.WakeNormal)
			}
		})
		runErr = s.Run()
	})
	const switches = 2 * switchRounds
	return cost{ns: c.ns / switches, allocs: c.allocs / switches, bytes: c.bytes / switches}, runErr
}

// dalvikIterations is the loop count of the interpreted probe method;
// each iteration executes eleven bytecodes.
const dalvikIterations = 100000

// dalvikProbe interprets an integer loop and reports the host cost per
// executed bytecode.
func dalvikProbe(c *bionic.C) (cost, error) {
	m, err := dalvik.NewAssembler("loop", 10).
		Const(1, 0).    // acc
		Const(2, 0).    // i
		Const(3, 1).    // 1
		Const(4, 7919). // a
		Label("loop").
		Op3(dalvik.OpCmp, 5, 2, 0).
		If(5, dalvik.IfGe, "done").
		Op3(dalvik.OpAdd, 1, 1, 4).
		Op3(dalvik.OpMul, 6, 2, 4).
		Op3(dalvik.OpXor, 1, 1, 6).
		Op3(dalvik.OpShl, 7, 2, 3).
		Op3(dalvik.OpOr, 1, 1, 7).
		Op3(dalvik.OpAdd, 2, 2, 3).
		Goto("loop").
		Label("done").
		Return(1).
		Assemble()
	if err != nil {
		return cost{}, err
	}
	f := &dalvik.File{Methods: []dalvik.Method{m}}
	vm := dalvik.NewVM(c.T.Kernel().Device().CPU)
	var runErr error
	total := measure(1, func() { _, runErr = vm.Run(c.T, f, "loop", dalvikIterations) })
	ops := float64(vm.Executed())
	if ops == 0 {
		return cost{}, fmt.Errorf("dalvik: nothing executed")
	}
	return cost{ns: total.ns / ops, allocs: total.allocs / ops, bytes: total.bytes / ops}, runErr
}

const (
	vfsChunk    = 4 << 10
	vfsFileSize = 1 << 20
)

// vfsProbe writes a 1 MiB file sequentially in 4 KiB appends through
// Node.WriteData, each append extending the file; one operation is the
// whole file.
func vfsProbe() (cost, error) {
	chunk := make([]byte, vfsChunk)
	var err error
	c := measure(2, func() {
		n, cerr := vfs.New().Create("/seq")
		if cerr != nil {
			err = cerr
			return
		}
		for off := int64(0); off < vfsFileSize; off += vfsChunk {
			n.WriteData(off, chunk)
		}
	})
	return c, err
}

// runProbes runs every probe probeReps times and returns each probe's
// median cost, and the number of probe runs that failed.
func runProbes(logf func(format string, args ...any)) (map[string]cost, int) {
	out := map[string]cost{}
	failed := 0
	for _, p := range probes {
		var ns, allocs, bytes []float64
		for r := 0; r < probeReps; r++ {
			c, err := p.run()
			if err != nil {
				failed++
				logf("probe %s: %v", p.name, err)
				continue
			}
			ns = append(ns, c.ns)
			allocs = append(allocs, c.allocs)
			bytes = append(bytes, c.bytes)
		}
		out[p.name] = cost{ns: median(ns), allocs: median(allocs), bytes: median(bytes)}
	}
	return out, failed
}
