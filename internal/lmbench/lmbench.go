// Package lmbench ports the lmbench 3.0 microbenchmarks used in the
// paper's Figure 5 to the simulated systems: basic CPU operations,
// syscalls and signals, process creation, and local communication / file
// operations, each run on the four configurations (vanilla Android, Cider
// running the Linux binary, Cider running the iOS binary, and the iPad
// mini) and normalized to vanilla Android.
//
// As in the paper, the tests are compiled twice — "an ELF Linux binary
// version, and a Mach-O iOS binary version, using the standard Linux GCC
// 4.4.1 and Xcode 4.2.1 compilers" — which here means the driver is
// installed as a real ELF or Mach-O image whose compute charges are scaled
// by the matching toolchain model.
package lmbench

import (
	"fmt"
	"time"

	"repro/internal/bionic"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/libsystem"
)

// Binary selects which compiled form of the benchmark runs.
type Binary int

const (
	// BinaryLinux is the GCC-built ELF version.
	BinaryLinux Binary = iota
	// BinaryIOS is the Xcode-built Mach-O version.
	BinaryIOS
)

func (b Binary) String() string {
	if b == BinaryIOS {
		return "ios"
	}
	return "linux"
}

// libc abstracts the two binaries' C libraries behind one surface so each
// test body is written once, exactly as lmbench's source is.
type libc interface {
	Fork(child func(libc)) int
	Exit(status int)
	Exec(path string, argv []string) kernel.Errno
	Wait(pid int) (int, int, kernel.Errno)
	Open(path string) (int, kernel.Errno)
	Creat(path string) (int, kernel.Errno)
	Close(fd int) kernel.Errno
	Read(fd int, b []byte) (int, kernel.Errno)
	Write(fd int, b []byte) (int, kernel.Errno)
	Unlink(path string) kernel.Errno
	Pipe() (int, int, kernel.Errno)
	Socketpair() (int, int, kernel.Errno)
	Select(req *kernel.SelectRequest) (*kernel.SelectResult, kernel.Errno)
	GetPID() int
	GetPPID() int
	Kill(pid, sig int) kernel.Errno
	Sigaction(sig int, h kernel.SignalHandler) kernel.Errno
	SigUsr1() int
}

// bionicLibc adapts bionic.C; only Fork (whose child sees the adapter)
// and the signal number differ from the library's own surface.
type bionicLibc struct{ *bionic.C }

func (b bionicLibc) Fork(child func(libc)) int {
	return b.C.Fork(func(cc *bionic.C) { child(bionicLibc{cc}) })
}
func (b bionicLibc) SigUsr1() int { return kernel.SIGUSR1 }

// darwinLibc adapts libsystem.C (XNU signal numbering included).
type darwinLibc struct{ *libsystem.C }

func (d darwinLibc) Fork(child func(libc)) int {
	return d.C.Fork(func(cc *libsystem.C) { child(darwinLibc{cc}) })
}
func (d darwinLibc) SigUsr1() int { return 30 } // XNU SIGUSR1

// ctx is the environment a test body runs in.
type ctx struct {
	t   *kernel.Thread
	lc  libc
	bin Binary
	sys *core.System
	// helloLinux/helloIOS are the payloads the proc tests exec.
	helloLinux, helloIOS string
	toolchain            *hw.Toolchain
}

// compute charges n operations of class op, through the binary's compiler
// model — the source of the intdiv difference in the basic-ops group.
func (c *ctx) compute(op hw.CPUOp, n int64) {
	cpu := c.sys.Kernel.Device().CPU
	d := cpu.OpTime(op, n)
	c.t.Charge(time.Duration(float64(d) * c.toolchain.OpScale(op)))
}

// Test is one lmbench measurement.
type Test struct {
	// Name matches the Fig. 5 x-axis label.
	Name string
	// Group is the Fig. 5 cluster ("basic", "syscall", "proc", "comm").
	Group string
	// Base names the test whose vanilla-Android latency normalizes this
	// one. Empty means itself; the fork+exec(ios)/fork+sh(ios) tests are
	// impossible on vanilla Android and are normalized against their
	// android variants, as the paper does ("the comparison is
	// intentionally unfair and skews the results against this test").
	Base string
	// run returns the per-operation latency; ok=false means the test
	// could not complete on this configuration (e.g. select(250) on the
	// iPad, fork+exec(ios) on vanilla Android).
	run func(c *ctx) (time.Duration, bool)
}

// BaseName returns the normalization baseline test name.
func (t Test) BaseName() string {
	if t.Base != "" {
		return t.Base
	}
	return t.Name
}

// Result is one (test, configuration) measurement.
type Result struct {
	Test   string
	Group  string
	Config string
	// Latency is the per-operation virtual-time latency.
	Latency time.Duration
	// Failed marks tests that could not complete.
	Failed bool
}

// iters is the default measurement loop count.
const iters = 64

// measure times one operation repeated n times.
func measure(c *ctx, n int, op func()) time.Duration {
	start := c.t.Now()
	for i := 0; i < n; i++ {
		op()
	}
	return (c.t.Now() - start) / time.Duration(n)
}

// Config names used in reports.
const (
	ConfigAndroid      = "android"
	ConfigCiderAndroid = "cider-android"
	ConfigCiderIOS     = "cider-ios"
	ConfigIPad         = "ipad"
)

// Configuration describes one Fig. 5 column.
type Configuration struct {
	Name   string
	System core.Config
	Binary Binary
}

// Configurations returns the four Fig. 5 configurations in paper order.
func Configurations() []Configuration {
	return []Configuration{
		{ConfigAndroid, core.ConfigVanilla, BinaryLinux},
		{ConfigCiderAndroid, core.ConfigCider, BinaryLinux},
		{ConfigCiderIOS, core.ConfigCider, BinaryIOS},
		{ConfigIPad, core.ConfigIPad, BinaryIOS},
	}
}

// RunWith executes the given tests in one configuration, returning a
// result per test. onSystem, when non-nil, is invoked with the freshly
// booted System before any benchmark process starts. Tests and the CLI
// use it to attach a trace session to the run; it must not advance
// virtual time. The hook is a per-run argument, not package state, so
// concurrent batteries (and concurrent tests) stay independent.
func RunWith(conf Configuration, tests []Test, onSystem func(*core.System)) ([]Result, error) {
	sys, err := core.NewSystem(conf.System)
	if err != nil {
		return nil, err
	}
	if onSystem != nil {
		onSystem(sys)
	}
	// Install the hello-world payloads the process-creation tests exec.
	if sys.AndroidFS != nil {
		if err := sys.InstallStaticAndroidBinary("/bin/hello-linux", "lm-hello-linux",
			helloBody); err != nil {
			return nil, err
		}
	}
	if sys.IOSFS != nil {
		if err := sys.InstallIOSBinary("/bin/hello-ios", "lm-hello-ios", nil,
			helloBody); err != nil {
			return nil, err
		}
	}

	results := make([]Result, 0, len(tests))
	driver := func(t *kernel.Thread) {
		c := &ctx{
			t:          t,
			bin:        conf.Binary,
			sys:        sys,
			helloLinux: "/bin/hello-linux",
			helloIOS:   "/bin/hello-ios",
		}
		if conf.Binary == BinaryIOS {
			c.lc = darwinLibc{libsystem.Sys(t)}
			c.toolchain = hw.Xcode421()
		} else {
			c.lc = bionicLibc{bionic.Sys(t)}
			c.toolchain = hw.GCC441()
		}
		for _, test := range tests {
			lat, ok := test.run(c)
			results = append(results, Result{
				Test: test.Name, Group: test.Group, Config: conf.Name,
				Latency: lat, Failed: !ok,
			})
		}
	}
	key := fmt.Sprintf("lmbench-%s", conf.Name)
	var path string
	if conf.Binary == BinaryIOS {
		path = "/bin/lmbench"
		if err := sys.InstallIOSBinary(path, key, nil, wrap(driver)); err != nil {
			return nil, err
		}
	} else {
		path = "/bin/lmbench"
		if err := sys.InstallStaticAndroidBinary(path, key, wrap(driver)); err != nil {
			return nil, err
		}
	}
	if _, err := sys.Start(path, nil); err != nil {
		return nil, err
	}
	if err := sys.Run(); err != nil {
		return nil, err
	}
	return results, nil
}
