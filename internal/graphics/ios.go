package graphics

import (
	"fmt"
	"strings"

	"repro/internal/diplomat"
	"repro/internal/dyld"
	"repro/internal/elfx"
	"repro/internal/kernel"
	"repro/internal/macho"
	"repro/internal/prog"
	"repro/internal/vfs"
)

// IOSGLExports is the exported surface of the iOS OpenGL ES framework:
// the standard GL API plus Apple's EAGL extensions, in Mach-O symbol form.
func IOSGLExports() []string {
	var out []string
	for _, n := range GLFunctions {
		out = append(out, "_"+n)
	}
	for _, n := range EGLBridgeFunctions {
		out = append(out, "_"+n)
	}
	return out
}

// IOSurfaceExports is the exported surface of the iOS IOSurface library.
var IOSurfaceExports = []string{
	"_IOSurfaceCreate", "_IOSurfaceGetBaseAddress", "_IOSurfaceGetWidth",
	"_IOSurfaceGetHeight", "_IOSurfaceLock", "_IOSurfaceUnlock",
}

// GrallocFunctions is libgralloc's export list (the HAL entry points the
// IOSurface diplomats call into).
var GrallocFunctions = []string{
	"gralloc_alloc", "gralloc_free", "gralloc_lock", "gralloc_unlock",
	"gralloc_get_width", "gralloc_get_height",
}

// RegisterGrallocExports publishes the gralloc HAL symbols.
func RegisterGrallocExports(reg *prog.Registry, g *Gralloc) error {
	impl := map[string]func(t *kernel.Thread, args []uint64) uint64{
		"gralloc_alloc": func(t *kernel.Thread, args []uint64) uint64 {
			w, h, bpp := int(idx(args, 0)), int(idx(args, 1)), int(idx(args, 2))
			if bpp == 0 {
				bpp = 4
			}
			b, err := g.Alloc(t, w, h, bpp)
			if err != nil {
				return 0
			}
			return b.ID
		},
		"gralloc_free": func(t *kernel.Thread, args []uint64) uint64 {
			if g.Free(t, idx(args, 0)) != nil {
				return ^uint64(0)
			}
			return 0
		},
		"gralloc_lock":   func(t *kernel.Thread, args []uint64) uint64 { return 0 },
		"gralloc_unlock": func(t *kernel.Thread, args []uint64) uint64 { return 0 },
		"gralloc_get_width": func(t *kernel.Thread, args []uint64) uint64 {
			if b, ok := g.Get(idx(args, 0)); ok {
				return uint64(b.Width)
			}
			return 0
		},
		"gralloc_get_height": func(t *kernel.Thread, args []uint64) uint64 {
			if b, ok := g.Get(idx(args, 0)); ok {
				return uint64(b.Height)
			}
			return 0
		},
	}
	for name, fn := range impl {
		f := fn
		if err := reg.Register(prog.SymbolKey(GrallocPath, name), func(c *prog.Call) uint64 {
			t, ok := c.Ctx.(*kernel.Thread)
			if !ok {
				return 0
			}
			return f(t, c.Args)
		}); err != nil {
			return err
		}
	}
	return nil
}

func idx(args []uint64, i int) uint64 {
	if i < len(args) {
		return args[i]
	}
	return 0
}

// iosurfaceToGralloc maps each IOSurface entry point to the gralloc HAL
// call its diplomat invokes — the hand-written interposition of
// Section 5.3 ("Cider interposes diplomatic functions on key IOSurface API
// entry points such as IOSurfaceCreate. These diplomats call into
// Android-specific graphics memory allocation libraries such as
// libgralloc.").
var iosurfaceToGralloc = map[string]string{
	"_IOSurfaceCreate":         "gralloc_alloc",
	"_IOSurfaceGetBaseAddress": "gralloc_lock",
	"_IOSurfaceGetWidth":       "gralloc_get_width",
	"_IOSurfaceGetHeight":      "gralloc_get_height",
	"_IOSurfaceLock":           "gralloc_lock",
	"_IOSurfaceUnlock":         "gralloc_unlock",
}

// InstallCiderIOSGraphics builds the foreign-facing half of Cider's
// graphics support on a system whose domestic stack is already registered:
//
//  1. It runs the diplomat generator over the real binaries — the iOS
//     OpenGL ES framework from the iOS filesystem image against
//     libGLESv2.so and libEGLbridge.so from the Android image — and
//     installs a diplomat for every matched export (the "replacement iOS
//     OpenGL ES library with a diplomat for every exported symbol").
//
//  2. It interposes diplomats on the IOSurface entry points, mapping them
//     to libgralloc.
//
// It returns the generated spec list (the audit tool prints it).
func InstallCiderIOSGraphics(k *kernel.Kernel, eng *diplomat.Engine, iosFS *vfs.FS, androidFS *vfs.FS, openGLESPath, iosurfacePath string) ([]diplomat.Spec, error) {
	reg := k.Registry()

	foreign, err := parseMachO(iosFS, openGLESPath)
	if err != nil {
		return nil, err
	}
	var domestic []*elfx.File
	for _, so := range []string{"/system/lib/libGLESv2.so", "/system/lib/libEGLbridge.so"} {
		f, err := parseELF(androidFS, so)
		if err != nil {
			return nil, err
		}
		domestic = append(domestic, f)
	}
	specs, unmatched := diplomat.Generate(foreign, domestic)
	if len(unmatched) > 0 {
		return nil, fmt.Errorf("graphics: unmatched iOS GL exports need hand-written diplomats: %v", unmatched)
	}
	// libEGLbridge lives under /system/lib in the registry keyspace.
	for i := range specs {
		if specs[i].DomesticLib == "libEGLbridge.so" {
			// Registered under EGLBridgePath, not /system/lib/<soname>;
			// they are the same path, so nothing to fix — assert it.
			if "/system/lib/"+specs[i].DomesticLib != EGLBridgePath {
				return nil, fmt.Errorf("graphics: bridge path mismatch")
			}
		}
	}
	if err := eng.Install(reg, openGLESPath, specs); err != nil {
		return nil, err
	}

	// IOSurface interposition.
	for foreignSym, grallocFn := range iosurfaceToGralloc {
		key := prog.SymbolKey(iosurfacePath, foreignSym)
		if err := reg.Register(key, eng.Wrap(prog.SymbolKey(GrallocPath, grallocFn))); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// InstallNativeIOSGraphics registers the iPad's own graphics libraries:
// the same export surface backed directly by the device GPU — no
// diplomats, no persona switches.
func InstallNativeIOSGraphics(reg *prog.Registry, gl *GLES, bridge *EAGLBridge, gralloc *Gralloc, openGLESPath, iosurfacePath string) error {
	for _, name := range GLFunctions {
		fname := name
		if err := reg.Register(prog.SymbolKey(openGLESPath, "_"+fname), func(c *prog.Call) uint64 {
			t, ok := c.Ctx.(*kernel.Thread)
			if !ok {
				return 0
			}
			return gl.Invoke(t, fname, c.Args)
		}); err != nil {
			return err
		}
	}
	for _, name := range EGLBridgeFunctions {
		fname := name
		if err := reg.Register(prog.SymbolKey(openGLESPath, "_"+fname), func(c *prog.Call) uint64 {
			t, ok := c.Ctx.(*kernel.Thread)
			if !ok {
				return 0
			}
			return bridge.invoke(t, fname, c.Args)
		}); err != nil {
			return err
		}
	}
	for _, name := range IOSurfaceExports {
		fname := strings.TrimPrefix(name, "_")
		var fn func(t *kernel.Thread, args []uint64) uint64
		switch fname {
		case "IOSurfaceCreate":
			fn = func(t *kernel.Thread, args []uint64) uint64 {
				b, err := gralloc.Alloc(t, int(idx(args, 0)), int(idx(args, 1)), 4)
				if err != nil {
					return 0
				}
				return b.ID
			}
		case "IOSurfaceGetWidth":
			fn = func(t *kernel.Thread, args []uint64) uint64 {
				if b, ok := gralloc.Get(idx(args, 0)); ok {
					return uint64(b.Width)
				}
				return 0
			}
		case "IOSurfaceGetHeight":
			fn = func(t *kernel.Thread, args []uint64) uint64 {
				if b, ok := gralloc.Get(idx(args, 0)); ok {
					return uint64(b.Height)
				}
				return 0
			}
		default:
			fn = func(t *kernel.Thread, args []uint64) uint64 { return 0 }
		}
		f := fn
		if err := reg.Register(prog.SymbolKey(iosurfacePath, name), func(c *prog.Call) uint64 {
			t, ok := c.Ctx.(*kernel.Thread)
			if !ok {
				return 0
			}
			return f(t, c.Args)
		}); err != nil {
			return err
		}
	}
	return nil
}

// GL is an app-side binding: function pointers resolved through dyld, the
// way a real app's lazy stubs bind GL entry points.
type GL struct {
	fns map[string]prog.Func
	// call is the one Call every GL call passes, bound to the binding's
	// thread; argv backs its Args. A callee must not keep either after it
	// returns (DESIGN.md, simulation invariants).
	call prog.Call
	argv [maxGLArgs]uint64
}

// maxGLArgs is the widest GL ES 2.0 entry point's arity (glTexImage2D).
// A wider call still passes every argument; only its copy allocates.
const maxGLArgs = 9

// BindIOSGL resolves the iOS GL + EAGL + IOSurface surface for the calling
// thread's process. Every resolved symbol goes through the loaded-image
// table, so interposition (Cider's replacement libraries) takes effect
// exactly as on device.
func BindIOSGL(t *kernel.Thread) (*GL, error) {
	g := &GL{fns: make(map[string]prog.Func), call: prog.Call{Ctx: t}}
	for _, sym := range append(IOSGLExports(), IOSurfaceExports...) {
		fn, ok := dyld.ResolveSymbol(t, sym)
		if !ok {
			return nil, fmt.Errorf("graphics: dyld cannot resolve %s", sym)
		}
		g.fns[sym] = fn
	}
	return g, nil
}

// Call invokes a bound symbol on the binding's thread. args is copied, so
// it never outlives the call.
//
//hot:noalloc
func (g *GL) Call(sym string, args ...uint64) uint64 {
	fn, ok := g.fns[sym]
	if !ok {
		return ^uint64(0)
	}
	g.call.Args = append(g.argv[:0], args...)
	return fn(&g.call)
}

func parseMachO(fs *vfs.FS, path string) (*macho.File, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return macho.Parse(data)
}

func parseELF(fs *vfs.FS, path string) (*elfx.File, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return elfx.Parse(data)
}
