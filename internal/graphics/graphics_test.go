package graphics_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diplomat"
	"repro/internal/elfx"
	"repro/internal/graphics"
	"repro/internal/kernel"
	"repro/internal/macho"
	"repro/internal/persona"
	"repro/internal/prog"
)

// runIOSApp boots a system, installs an iOS binary whose body is fn, runs
// it, and returns the system for inspection.
func runIOSApp(t *testing.T, cfg core.Config, fn func(th *kernel.Thread, sys *core.System)) *core.System {
	t.Helper()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallIOSBinary("/Applications/t.app/t", "gfx-test", nil, func(c *prog.Call) uint64 {
		fn(c.Ctx.(*kernel.Thread), sys)
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Start("/Applications/t.app/t", nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestDiplomatGenerationCoversGLSurface(t *testing.T) {
	sys, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		t.Fatal(err)
	}
	// One diplomat per exported symbol of the iOS GL framework: the
	// standard API matched into libGLESv2.so, EAGL into libEGLbridge.so.
	want := len(graphics.IOSGLExports())
	if len(sys.GLSpecs) != want {
		t.Fatalf("generated %d diplomats, want %d", len(sys.GLSpecs), want)
	}
	byLib := map[string]int{}
	for _, sp := range sys.GLSpecs {
		byLib[sp.DomesticLib]++
	}
	if byLib["libGLESv2.so"] != len(graphics.GLFunctions) {
		t.Fatalf("GLESv2 diplomats = %d, want %d", byLib["libGLESv2.so"], len(graphics.GLFunctions))
	}
	if byLib["libEGLbridge.so"] != len(graphics.EGLBridgeFunctions) {
		t.Fatalf("bridge diplomats = %d, want %d", byLib["libEGLbridge.so"], len(graphics.EGLBridgeFunctions))
	}
}

func TestIOSAppRendersThroughDiplomats(t *testing.T) {
	var personaDuring persona.Kind
	var flipsAfter uint64
	sys := runIOSApp(t, core.ConfigCider, func(th *kernel.Thread, sys *core.System) {
		gl, err := graphics.BindIOSGL(th)
		if err != nil {
			t.Error(err)
			return
		}
		personaDuring = th.Persona.Current()
		ctx := gl.Call("_EAGLContextCreate")
		if ctx == 0 {
			t.Error("EAGLContextCreate failed")
			return
		}
		gl.Call("_EAGLContextSetCurrent", ctx)
		if gl.Call("_EAGLRenderbufferStorageFromDrawable", ctx, 640, 480) != 1 {
			t.Error("renderbuffer storage failed")
		}
		gl.Call("_glViewport", 0, 0, 640, 480)
		gl.Call("_glClear", 0x4000)
		gl.Call("_glDrawArrays", 4, 0, 300)
		gl.Call("_EAGLContextPresentRenderbuffer", ctx)
	})
	// The app thread must be back in the iOS persona after every call.
	if personaDuring != persona.IOS {
		t.Fatalf("persona = %v", personaDuring)
	}
	if sys.Diplomat.Calls() < 7 {
		t.Fatalf("diplomat calls = %d, want >= 7", sys.Diplomat.Calls())
	}
	if sys.Gfx.SF.Frames() != 1 {
		t.Fatalf("composited frames = %d, want 1", sys.Gfx.SF.Frames())
	}
	if sys.FB.Flips() != 1 {
		t.Fatalf("page flips = %d, want 1", sys.FB.Flips())
	}
	flipsAfter = sys.FB.Flips()
	_ = flipsAfter
	draws, _, _ := sys.GPU.Stats()
	if draws != 1 {
		t.Fatalf("GPU draws = %d, want 1", draws)
	}
}

func TestIOSurfaceDiplomatsAllocateGralloc(t *testing.T) {
	sys := runIOSApp(t, core.ConfigCider, func(th *kernel.Thread, sys *core.System) {
		gl, err := graphics.BindIOSGL(th)
		if err != nil {
			t.Error(err)
			return
		}
		id := gl.Call("_IOSurfaceCreate", 256, 256, 4)
		if id == 0 {
			t.Error("IOSurfaceCreate failed")
			return
		}
		if w := gl.Call("_IOSurfaceGetWidth", id); w != 256 {
			t.Errorf("width = %d", w)
		}
	})
	if sys.Gfx.Gralloc.Live() != 1 {
		t.Fatalf("gralloc buffers = %d, want 1 (IOSurface must map to gralloc)", sys.Gfx.Gralloc.Live())
	}
}

func TestIPadNativeGraphicsNoDiplomats(t *testing.T) {
	sys := runIOSApp(t, core.ConfigIPad, func(th *kernel.Thread, sys *core.System) {
		gl, err := graphics.BindIOSGL(th)
		if err != nil {
			t.Error(err)
			return
		}
		ctx := gl.Call("_EAGLContextCreate")
		gl.Call("_EAGLContextSetCurrent", ctx)
		gl.Call("_EAGLRenderbufferStorageFromDrawable", ctx, 640, 480)
		gl.Call("_glDrawArrays", 4, 0, 300)
		gl.Call("_EAGLContextPresentRenderbuffer", ctx)
	})
	if sys.Diplomat != nil {
		t.Fatal("iPad must not have a diplomat engine")
	}
	draws, _, _ := sys.GPU.Stats()
	if draws != 1 {
		t.Fatalf("draws = %d", draws)
	}
}

func TestDiplomatOverheadPerCall(t *testing.T) {
	// Each GL call through a diplomat must cost more than the same call
	// natively — the 3D overhead source of Fig. 6 — but stay in the
	// microsecond range.
	perCall := func(cfg core.Config) time.Duration {
		var elapsed time.Duration
		runIOSApp(t, cfg, func(th *kernel.Thread, sys *core.System) {
			gl, err := graphics.BindIOSGL(th)
			if err != nil {
				t.Error(err)
				return
			}
			ctx := gl.Call("_EAGLContextCreate")
			gl.Call("_EAGLContextSetCurrent", ctx)
			gl.Call("_glEnable", 1) // warm the resolution cache
			const iters = 500
			start := th.Now()
			for i := 0; i < iters; i++ {
				gl.Call("_glEnable", 1)
			}
			elapsed = (th.Now() - start) / iters
		})
		return elapsed
	}
	cider := perCall(core.ConfigCider)
	ipad := perCall(core.ConfigIPad)
	if cider <= ipad {
		t.Fatalf("diplomat call (%v) should cost more than native (%v)", cider, ipad)
	}
	overhead := cider - ipad
	if overhead < 1*time.Microsecond || overhead > 12*time.Microsecond {
		t.Fatalf("diplomat overhead = %v, want a few µs", overhead)
	}
}

func TestBuggyFencesDegradeRendering(t *testing.T) {
	// Fig. 6, image rendering: "bugs in the Cider OpenGL ES library
	// related to fence synchronization primitives caused
	// under-performance".
	frameTime := func(buggy bool) time.Duration {
		var elapsed time.Duration
		fixed := !buggy
		sys, err := core.NewSystem(core.ConfigCider, core.Options{FixFences: &fixed})
		if err != nil {
			t.Fatal(err)
		}
		runBody := func(th *kernel.Thread, sys *core.System) {
			gl, err := graphics.BindIOSGL(th)
			if err != nil {
				t.Error(err)
				return
			}
			ctx := gl.Call("_EAGLContextCreate")
			gl.Call("_EAGLContextSetCurrent", ctx)
			gl.Call("_EAGLRenderbufferStorageFromDrawable", ctx, 640, 480)
			start := th.Now()
			for i := 0; i < 10; i++ {
				gl.Call("_glTexImage2D", 0, 0, 0, 256, 256, 0, 0, 0, 0)
				gl.Call("_glDrawArrays", 4, 0, 100)
				gl.Call("_glFenceSync", 0, 0)
				gl.Call("_glClientWaitSync", 0, 0, 0)
			}
			elapsed = th.Now() - start
		}
		if err := sys.InstallIOSBinary("/Applications/ft.app/ft", "ft-"+fmt.Sprint(buggy), nil, func(c *prog.Call) uint64 {
			runBody(c.Ctx.(*kernel.Thread), sys)
			return 0
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Start("/Applications/ft.app/ft", nil); err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	good := frameTime(false)
	bad := frameTime(true)
	if bad <= good {
		t.Fatalf("buggy fences (%v) must be slower than correct ones (%v)", bad, good)
	}
}

func TestMultiPersonaThreads(t *testing.T) {
	// Section 4.3: "while one thread executes complicated OpenGL ES
	// rendering algorithms using the domestic persona, another thread in
	// the same app can simultaneously process input data using the foreign
	// persona."
	var renderPersonaSaw, inputPersonaSaw persona.Kind
	runIOSApp(t, core.ConfigCider, func(th *kernel.Thread, sys *core.System) {
		gl, err := graphics.BindIOSGL(th)
		if err != nil {
			t.Error(err)
			return
		}
		done := make(chan struct{}) // host-side sync only; sim-side is the scheduler
		_ = done
		renderer := th.SpawnThread("render", func(rt *kernel.Thread) {
			rgl, err := graphics.BindIOSGL(rt)
			if err != nil {
				t.Error(err)
				return
			}
			ctx := rgl.Call("_EAGLContextCreate")
			rgl.Call("_EAGLContextSetCurrent", ctx)
			// Mid-diplomat the thread runs domestic; snapshot via the GL
			// callback below is overkill — instead verify switch counters.
			rgl.Call("_glDrawArrays", 4, 0, 64)
			renderPersonaSaw = rt.Persona.Current()
		})
		_ = renderer
		inputPersonaSaw = th.Persona.Current()
		gl.Call("_glGetError")
	})
	if renderPersonaSaw != persona.IOS || inputPersonaSaw != persona.IOS {
		t.Fatalf("threads must return to the foreign persona: %v/%v", renderPersonaSaw, inputPersonaSaw)
	}
}

func TestDiplomatErrnoConversion(t *testing.T) {
	// Step 8 of the arbitration: domestic errno values surface in the
	// foreign TLS in BSD numbering.
	sys, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		t.Fatal(err)
	}
	eng := sys.Diplomat
	// A domestic function that fails with EAGAIN (Linux 11).
	sys.Registry.MustRegister("dom-fail", func(c *prog.Call) uint64 {
		th := c.Ctx.(*kernel.Thread)
		th.Persona.TLS(persona.Android).Errno = int(kernel.EAGAIN)
		return ^uint64(0)
	})
	dip := eng.Wrap("dom-fail")
	var iosErrno int
	sys.InstallIOSBinary("/bin/e", "e", nil, func(c *prog.Call) uint64 {
		th := c.Ctx.(*kernel.Thread)
		dip(&prog.Call{Ctx: th})
		iosErrno = th.Persona.TLS(persona.IOS).Errno
		return 0
	})
	sys.Start("/bin/e", nil)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if iosErrno != 35 { // BSD EAGAIN
		t.Fatalf("iOS TLS errno = %d, want 35 (BSD EAGAIN)", iosErrno)
	}
}

func TestSurfaceLifecycle(t *testing.T) {
	sys := runIOSApp(t, core.ConfigCider, func(th *kernel.Thread, sys *core.System) {
		gl, err := graphics.BindIOSGL(th)
		if err != nil {
			t.Error(err)
			return
		}
		ctx := gl.Call("_EAGLContextCreate")
		gl.Call("_EAGLContextSetCurrent", ctx)
		gl.Call("_EAGLRenderbufferStorageFromDrawable", ctx, 320, 240)
		if sys.Gfx.SF.Layers() != 1 {
			t.Errorf("layers = %d", sys.Gfx.SF.Layers())
		}
		gl.Call("_EAGLContextDestroy", ctx)
	})
	if sys.Gfx.SF.Layers() != 0 {
		t.Fatalf("layers = %d after destroy", sys.Gfx.SF.Layers())
	}
	if sys.Gfx.Gralloc.Live() != 0 {
		t.Fatalf("gralloc leak: %d buffers", sys.Gfx.Gralloc.Live())
	}
}

func TestGenerateReportsUnmatched(t *testing.T) {
	// A foreign lib exporting something no Android library provides must
	// be reported for hand implementation.
	foreignBin, err := prog.MachODylib("/Foo.framework/Foo", nil,
		[]string{"_glClear", "_AppleSecretFunction"}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	domBin, err := prog.ELFSharedObject("libGLESv2.so", nil, []string{"glClear"})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := macho.Parse(foreignBin)
	if err != nil {
		t.Fatal(err)
	}
	df, err := elfx.Parse(domBin)
	if err != nil {
		t.Fatal(err)
	}
	specs, unmatched := diplomat.Generate(ff, []*elfx.File{df})
	if len(specs) != 1 || specs[0].ForeignSymbol != "_glClear" {
		t.Fatalf("specs = %+v", specs)
	}
	if len(unmatched) != 1 || unmatched[0] != "_AppleSecretFunction" {
		t.Fatalf("unmatched = %v", unmatched)
	}
}

// TestWebKitStyleMultithreadedGLLimitation reproduces §6.4: "the iOS
// WebKit framework is only partially supported due to its multi-threaded
// use of the OpenGL ES API." A context made current on one thread cannot
// migrate to another on the Cider prototype, but can on the iPad.
func TestWebKitStyleMultithreadedGLLimitation(t *testing.T) {
	migrate := func(cfg core.Config) uint64 {
		var second uint64
		runApp := func(th *kernel.Thread, sys *core.System) {
			gl, err := graphics.BindIOSGL(th)
			if err != nil {
				t.Error(err)
				return
			}
			ctx := gl.Call("_EAGLContextCreate")
			if gl.Call("_EAGLContextSetCurrent", ctx) != 1 {
				t.Error("first SetCurrent failed")
			}
			done := false
			th.SpawnThread("webkit-raster", func(wt *kernel.Thread) {
				wgl, err := graphics.BindIOSGL(wt)
				if err != nil {
					done = true
					return
				}
				// WebKit's raster thread tries to take over the context.
				second = wgl.Call("_EAGLContextSetCurrent", ctx)
				done = true
			})
			for !done {
				th.Proc().Sleep(time.Millisecond)
			}
		}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.InstallIOSBinary("/Applications/wk.app/wk", "wk-"+cfg.String(), nil, func(c *prog.Call) uint64 {
			runApp(c.Ctx.(*kernel.Thread), sys)
			return 0
		}); err != nil {
			t.Fatal(err)
		}
		sys.Start("/Applications/wk.app/wk", nil)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return second
	}
	if got := migrate(core.ConfigCider); got != 0 {
		t.Errorf("Cider prototype: cross-thread SetCurrent = %d, want 0 (partial WebKit support)", got)
	}
	if got := migrate(core.ConfigIPad); got != 1 {
		t.Errorf("iPad: cross-thread SetCurrent = %d, want 1", got)
	}
}

// TestGLCallAllocFree pins an iOS GL call at zero heap allocations on both
// configs that run the Fig. 6 3D tests: diplomatic on Cider, native on the
// iPad. It issues the scene3D mix (seven uniform updates per draw), and
// twice the calls must allocate exactly as much as half as many.
func TestGLCallAllocFree(t *testing.T) {
	for _, cfg := range []core.Config{core.ConfigCider, core.ConfigIPad} {
		runIOSApp(t, cfg, func(th *kernel.Thread, sys *core.System) {
			gl, err := graphics.BindIOSGL(th)
			if err != nil {
				t.Error(err)
				return
			}
			ctx := gl.Call("_EAGLContextCreate")
			gl.Call("_EAGLContextSetCurrent", ctx)
			if gl.Call("_EAGLRenderbufferStorageFromDrawable", ctx, 1024, 768) != 1 {
				t.Error("renderbuffer storage failed")
				return
			}
			calls := func(n int) func() {
				return func() {
					for k := 0; k < n; k++ {
						if k%8 == 7 {
							gl.Call("_glDrawArrays", 4, 0, 64)
						} else {
							gl.Call("_glUniformMatrix4fv", uint64(k), 1, 0, 0)
						}
					}
				}
			}
			calls(8)() // resolve every diplomat once, outside the measurement
			short := testing.AllocsPerRun(10, calls(800))
			long := testing.AllocsPerRun(10, calls(1600))
			if short != long {
				t.Errorf("%v: %v allocs at 800 GL calls, %v at 1600; want equal (a GL call allocates)", cfg, short, long)
			}
		})
	}
}
