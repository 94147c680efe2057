package dyld

import (
	"reflect"
	"testing"

	"repro/internal/prog"
	"repro/internal/vfs"
)

// TestPrelinkCacheMatchesManifest pins the shortcut Prelink takes: the
// table's cache shares the per-library images instead of decoding the
// manifest it wrote, so decoding those bytes must give the same table.
func TestPrelinkCacheMatchesManifest(t *testing.T) {
	fs := vfs.New()
	libs := []string{"/usr/lib/libA.dylib", "/usr/lib/libB.dylib", "/usr/lib/libNone.dylib"}
	exports := [][]string{{"_a1", "_a2"}, {"_b1"}, nil}
	for i, lib := range libs {
		bin, err := prog.MachODylib(lib, nil, exports[i], uint32(64<<10*(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(lib, bin); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Prelink(fs, libs)
	if err != nil {
		t.Fatal(err)
	}
	node, err := fs.Lookup(SharedCachePath)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := decodeManifest(node.Data())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, p.cache) {
		t.Errorf("Prelink's cache differs from its decoded manifest:\n got %+v\nwant %+v", p.cache, decoded)
	}
	if got, err := p.sharedCache(node.Data()); err != nil || got != p.cache {
		t.Error("the image's own manifest bytes do not hit the prelinked cache")
	}
}
