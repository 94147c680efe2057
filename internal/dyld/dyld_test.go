package dyld_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dyld"
	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/prog"
)

func bootIOS(t *testing.T, opts core.Options, body func(th *kernel.Thread)) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.ConfigCider, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys.InstallIOSBinary("/bin/dyldt", "dyldt-"+t.Name(), nil, func(c *prog.Call) uint64 {
		body(c.Ctx.(*kernel.Thread))
		return 0
	})
	sys.Start("/bin/dyldt", nil)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestImagesLoadedInOrderWithDeps(t *testing.T) {
	bootIOS(t, core.Options{}, func(th *kernel.Thread) {
		im, ok := dyld.ImagesFor(th.Task())
		if !ok {
			t.Error("no image table")
			return
		}
		if im.Count() != 115 {
			t.Errorf("images = %d", im.Count())
		}
		// libSystem is the first dependency, hence the first image.
		if im.List()[0].Path != "/usr/lib/libSystem.B.dylib" {
			t.Errorf("first image = %s", im.List()[0].Path)
		}
		if !im.Has("/System/Library/Frameworks/UIKit.framework/UIKit") {
			t.Error("UIKit not loaded")
		}
	})
}

func TestResolveSymbolFlatNamespace(t *testing.T) {
	bootIOS(t, core.Options{}, func(th *kernel.Thread) {
		// A GL symbol resolves to Cider's replacement (the diplomat), and
		// the resolved function is callable.
		fn, ok := dyld.ResolveSymbol(th, "_glGetError")
		if !ok {
			t.Error("cannot resolve _glGetError")
			return
		}
		_ = fn
		if _, ok := dyld.ResolveSymbol(th, "_NoSuchSymbolAnywhere"); ok {
			t.Error("phantom symbol resolved")
		}
	})
}

func TestMissingDylibFailsLaunch(t *testing.T) {
	sys, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	// Link a library that does not exist in the image.
	sys.Registry.MustRegister("ghostapp", func(c *prog.Call) uint64 {
		ran = true
		return 0
	})
	bin, _ := prog.MachOExecutable("ghostapp", []string{"/usr/lib/libGhost.dylib"}, nil)
	sys.IOSFS.WriteFile("/bin/ghost", bin)
	sys.Start("/bin/ghost", nil)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("app with missing dylib must not reach main (dyld: library not loaded)")
	}
}

func TestSharedCacheSkipsFilesystemWalk(t *testing.T) {
	measureExec := func(cache bool) time.Duration {
		var elapsed time.Duration
		sys, err := core.NewSystem(core.ConfigCider, core.Options{SharedCache: &cache})
		if err != nil {
			t.Fatal(err)
		}
		sys.InstallIOSBinary("/bin/child", "child-"+t.Name()+boolTag(cache), nil,
			func(c *prog.Call) uint64 { return 0 })
		sys.InstallIOSBinary("/bin/parent", "parent-"+t.Name()+boolTag(cache), nil,
			func(c *prog.Call) uint64 {
				th := c.Ctx.(*kernel.Thread)
				lc := libsystem.Sys(th)
				start := th.Now()
				pid := lc.Fork(func(cc *libsystem.C) {
					cc.Exec("/bin/child", nil)
					cc.Exit(127)
				})
				lc.Wait(pid)
				elapsed = th.Now() - start
				return 0
			})
		sys.Start("/bin/parent", nil)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	walk := measureExec(false)
	cached := measureExec(true)
	// "dyld must walk the filesystem to load each library on every exec";
	// the prelinked cache removes that entirely.
	if cached >= walk/3 {
		t.Fatalf("cache exec (%v) should be far below walking exec (%v)", cached, walk)
	}
}

func boolTag(b bool) string {
	if b {
		return "-on"
	}
	return "-off"
}

func TestImageTableSharedAcrossFork(t *testing.T) {
	bootIOS(t, core.Options{}, func(th *kernel.Thread) {
		lc := libsystem.Sys(th)
		parentImages, _ := dyld.ImagesFor(th.Task())
		pid := lc.Fork(func(cc *libsystem.C) {
			childImages, ok := dyld.ImagesFor(cc.T.Task())
			if !ok || childImages.Count() != parentImages.Count() {
				cc.Exit(1)
			}
			cc.Exit(0)
		})
		_, status, _ := lc.Wait(pid)
		if status != 0 {
			t.Errorf("child image table wrong (status %d)", status)
		}
	})
}

// TestRewrittenDylibStaysInItsSystem overwrites one boot-image library in
// one System with a build that exports one more symbol. dyld must bind the
// new export there (the prelinked entry describes the image's bytes, not
// the path), and a System booted afterwards must still see the image's
// library.
func TestRewrittenDylibStaysInItsSystem(t *testing.T) {
	const lib = "/usr/lib/libz.1.dylib"
	const extra = "_zlibRewrittenExport"
	resolves := func(rewrite bool) bool {
		sys, err := core.NewSystem(core.ConfigCider)
		if err != nil {
			t.Fatal(err)
		}
		// Register the export's code in both Systems, so only the image
		// table decides whether it binds.
		sys.Registry.MustRegister(prog.SymbolKey(lib, extra), func(c *prog.Call) uint64 { return 0 })
		if rewrite {
			bin, err := prog.MachODylib(lib, []string{core.LibSystemPath}, []string{"_libz_init", extra}, 800<<10)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.IOSFS.WriteFile(lib, bin); err != nil {
				t.Fatal(err)
			}
		}
		bound := false
		sys.InstallIOSBinary("/bin/rebind", "rebind-"+t.Name()+boolTag(rewrite), nil, func(c *prog.Call) uint64 {
			_, bound = dyld.ResolveSymbol(c.Ctx.(*kernel.Thread), extra)
			return 0
		})
		sys.Start("/bin/rebind", nil)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return bound
	}
	if !resolves(true) {
		t.Errorf("rewritten %s: %s does not bind", lib, extra)
	}
	if resolves(false) {
		t.Errorf("System booted after the rewrite binds %s: the rewrite leaked into the boot image", extra)
	}
}
