//go:build go1.24

package core

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/dyld"
	"repro/internal/kernel"
	"repro/internal/prog"
)

// bootRunAndDrop boots cfg, installs and execs an iOS binary, and returns
// weak pointers to the System and to the node bytes of every file the
// exec decoded from bytes only this System owns: the executable, a
// per-boot copy of libSystem, and on the iPad a per-boot copy of the
// shared-cache manifest. (The boot image's own libSystem and manifest are
// shared on purpose, so the test swaps in private copies of each.)
// Nothing it returns keeps the System alive.
func bootRunAndDrop(t *testing.T, cfg Config) (weak.Pointer[System], map[string]weak.Pointer[byte]) {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const exe = "/bin/reachable"
	images := 0
	if err := sys.InstallIOSBinary(exe, "reachable-"+cfg.String(), nil, func(c *prog.Call) uint64 {
		if im, ok := dyld.ImagesFor(c.Ctx.(*kernel.Thread).Task()); ok {
			images = im.Count()
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	owned := []string{exe, LibSystemPath}
	if cfg == ConfigIPad {
		owned = append(owned, dyld.SharedCachePath)
	}
	refs := make(map[string]weak.Pointer[byte])
	for _, path := range owned {
		node, err := sys.IOSFS.Lookup(path)
		if err != nil {
			t.Fatal(err)
		}
		if path != exe {
			node.SetData(append([]byte(nil), node.Data()...))
		}
		refs[path] = weak.Make(&node.Data()[0])
	}
	if _, err := sys.Start(exe, nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if images != len(IOSDylibs()) {
		t.Fatalf("dyld loaded %d images, want %d", images, len(IOSDylibs()))
	}
	return weak.Make(sys), refs
}

// TestBootedSystemIsCollectable is the leak regression for package-level
// state keyed by buffer identity: once a System is dropped, it and every
// buffer it allocated must be garbage. A cache that pins an executable's,
// a library's or a manifest's bytes (or a parse of them) keeps them
// reachable.
func TestBootedSystemIsCollectable(t *testing.T) {
	for _, cfg := range []Config{ConfigCider, ConfigIPad} {
		t.Run(cfg.String(), func(t *testing.T) {
			sysRef, refs := bootRunAndDrop(t, cfg)
			runtime.GC()
			runtime.GC()
			if sysRef.Value() != nil {
				t.Error("System still reachable after GC")
			}
			for path, ref := range refs {
				if ref.Value() != nil {
					t.Errorf("%s node bytes still reachable after GC", path)
				}
			}
		})
	}
}

// TestBootSharesImageBytes pins the other half of the boot image: a boot
// allocates no library or manifest bytes of its own, so every System's
// nodes hold the image's copy.
func TestBootSharesImageBytes(t *testing.T) {
	img, err := iosImage()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{ConfigCider, ConfigIPad} {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{LibSystemPath, OpenGLESPath, dyld.SharedCachePath} {
			want, err := img.fs.Lookup(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sys.IOSFS.Lookup(path)
			if err != nil {
				t.Fatal(err)
			}
			if &got.Data()[0] != &want.Data()[0] || got.Size() != want.Size() {
				t.Errorf("%s: %s holds its own bytes, not the boot image's", cfg, path)
			}
		}
	}
}
