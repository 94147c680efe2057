package core

import (
	"sync"

	"repro/internal/dyld"
	"repro/internal/vfs"
)

// A bootImage is everything a System boots from that is a pure function
// of package constants. There are two: the Android image (the HAL .so set
// and the shells) and the iOS image (115 dylibs, dyld, the shell, and the
// prelinked shared cache). Vanilla Android boots from the first, the iPad
// from the second, Cider from both. Each is built lazily, once per
// process, on the first boot that needs it, then frozen and shared
// immutably: a System gets a Clone of the filesystem, which copies only
// the directory skeleton and shares file bytes copy-on-write, and a
// pointer to the prelink table, which dyld consults only for the image's
// own bytes. Per-boot state (a rewritten library, installed binaries) lives
// in the System's clone and dies with it; nothing built for one System is
// kept for the next.
//
// None of this touches virtual time: building an image never charged
// simulated cycles, and dyld charges every load in full whichever way the
// bytes were decoded (the determinism and soak digest tests pin this).
type bootImage struct {
	fs        *vfs.FS
	prelinked *dyld.Prelinked // the iOS image's dylibs and cache manifest
}

var (
	iosImage = sync.OnceValues(func() (*bootImage, error) {
		fs := vfs.New()
		if err := buildIOSFS(fs); err != nil {
			return nil, err
		}
		pre, err := dyld.Prelink(fs, IOSDylibs())
		if err != nil {
			return nil, err
		}
		fs.Freeze()
		return &bootImage{fs: fs, prelinked: pre}, nil
	})

	androidImage = sync.OnceValues(func() (*bootImage, error) {
		fs := vfs.New()
		if err := buildAndroidFS(fs); err != nil {
			return nil, err
		}
		fs.Freeze()
		return &bootImage{fs: fs}, nil
	})
)
