// Package dyld is the simulated iOS dynamic linker: the user-space binary
// the kernel Mach-O loader hands control to. It walks the filesystem to
// locate every LC_LOAD_DYLIB dependency (recursively), maps each dylib,
// binds exported symbols, registers the per-library pthread_atfork and
// atexit callbacks whose execution dominates iOS fork/exit latency, runs
// image initializers, and finally jumps to the app entry point
// (Sections 2 and 6.2).
//
// Two configurations matter for the paper's numbers:
//
//   - Cider's prototype uses non-prelinked libraries: "dyld must walk the
//     filesystem to load each library on every exec" — ~115 libraries and
//     ~90 MB of mappings for any app linking libSystem.
//   - iOS's dyld on the iPad uses a prelinked shared cache: one nested-map
//     (submap) attach replaces the walk, making exec and fork much cheaper.
//     Cider "does not yet support" this optimization; enabling it here is
//     the BenchmarkAblationSharedCache experiment.
//
// Both paths read a boot image's Prelinked table (see Prelink) for bytes
// the image owns and parse anything else; the charges are the same
// either way.
package dyld

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/macho"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// ProgKey is dyld's registry key; /usr/lib/dyld's text payload names it.
const ProgKey = "dyld"

// SharedCachePath is where iOS stores the prelinked cache.
const SharedCachePath = "/System/Library/Caches/com.apple.dyld/dyld_shared_cache_armv7"

// ImagesKey stores the loaded-image table in task user data.
const ImagesKey = "dyld.images"

// Config controls the linker's behaviour.
type Config struct {
	// SharedCache enables the prelinked shared-cache fast path (iPad
	// configuration; off in the Cider prototype).
	SharedCache bool
	// Prelinked is the boot image's prelink table (see Prelink); nil means
	// every library and the cache manifest are parsed from the filesystem.
	Prelinked *Prelinked
}

// cacheHandlerGroups is how many consolidated handler registrations a
// prelinked cache performs instead of one per library.
const cacheHandlerGroups = 8

// LoadedImage is one mapped dylib.
type LoadedImage struct {
	// Path is the install name.
	Path string
	// Exports maps exported symbol names to their program-registry keys.
	Exports map[string]string
}

// Images is the per-process loaded-image table, in load order (flat
// namespace: earlier images win symbol resolution, which is how Cider's
// API interposition forces apps to bind its replacement entry points).
type Images struct {
	list   []*LoadedImage
	byPath map[string]*LoadedImage
}

// CloneUserData implements kernel.UserDataCloner; the table is immutable
// after launch, so fork shares the image list.
func (im *Images) CloneUserData() any { return im }

// List returns images in load order.
func (im *Images) List() []*LoadedImage { return im.list }

// Count returns the number of loaded images.
func (im *Images) Count() int { return len(im.list) }

// Has reports whether an install name is loaded.
func (im *Images) Has(path string) bool { _, ok := im.byPath[path]; return ok }

// Resolve finds the first image exporting symbol, returning its program
// key — dyld's flat-namespace binding rule.
func (im *Images) Resolve(symbol string) (string, bool) {
	for _, img := range im.list {
		if key, ok := img.Exports[symbol]; ok {
			return key, true
		}
	}
	return "", false
}

// ImagesFor returns the task's loaded-image table, if dyld has run.
func ImagesFor(tk *kernel.Task) (*Images, bool) {
	v, ok := tk.UserData(ImagesKey)
	if !ok {
		return nil, false
	}
	im, ok := v.(*Images)
	return im, ok
}

// ResolveSymbol binds a symbol in the calling thread's process, as a lazy
// dyld stub would.
func ResolveSymbol(t *kernel.Thread, symbol string) (prog.Func, bool) {
	im, ok := ImagesFor(t.Task())
	if !ok {
		return nil, false
	}
	key, ok := im.Resolve(symbol)
	if !ok {
		return nil, false
	}
	return t.Kernel().Registry().Lookup(key)
}

// cacheManifest is the serialized prelinked cache (the simulation's
// equivalent of the dyld_shared_cache file format).
type cacheManifest struct {
	TotalBytes uint64       `json:"total_bytes"`
	Images     []cacheImage `json:"images"`
}

type cacheImage struct {
	Path    string   `json:"path"`
	Exports []string `json:"exports"`
}

// Register installs the dyld program into a registry.
func Register(reg *prog.Registry, cfg Config) error {
	return reg.Register(ProgKey, func(c *prog.Call) uint64 {
		t := c.Ctx.(*kernel.Thread)
		return run(t, cfg, c.Args)
	})
}

// costs bundles dyld's own compute model for a device.
type costs struct {
	parse       time.Duration
	bindSym     time.Duration
	initImage   time.Duration
	atexitH     time.Duration
	atforkH     time.Duration
	cacheAttach time.Duration
}

func costsFor(t *kernel.Thread) costs {
	cpu := t.Kernel().Device().CPU
	return costs{
		parse:       cpu.Cycles(52000),   // ~40 µs @1.3GHz: load commands
		bindSym:     cpu.Cycles(1560),    // ~1.2 µs per bound symbol
		initImage:   cpu.Cycles(58500),   // ~45 µs per image initializer
		atexitH:     cpu.Cycles(9620),    // ~7.4 µs per atexit handler
		atforkH:     cpu.Cycles(6240),    // ~4.8 µs per atfork phase handler
		cacheAttach: cpu.Cycles(1560000), // ~1.2 ms one-time cache attach
	}
}

// run is dyld's main: load dependencies, register handlers, call main.
func run(t *kernel.Thread, cfg Config, args []uint64) uint64 {
	tk := t.Task()
	entryKeyV, ok := tk.UserData(kernel.DyldEntryKey)
	if !ok {
		return 255
	}
	entryKey := entryKeyV.(string)
	var needed []string
	if v, ok := tk.UserData(kernel.DyldNeededKey); ok {
		needed = v.([]string)
	}
	cs := costsFor(t)
	images := &Images{byPath: make(map[string]*LoadedImage)}
	tk.SetUserData(ImagesKey, images)

	loaded := false
	if cfg.SharedCache {
		loaded = attachSharedCache(t, cs, images, cfg.Prelinked)
	}
	if !loaded {
		// Walk the filesystem, loading each library: the slow path the
		// Cider prototype takes on every exec.
		if err := loadAll(t, cs, images, cfg.Prelinked, needed); err != nil {
			return 255
		}
	}

	// Jump to the program entry point.
	entry, ok := t.Kernel().Registry().Lookup(entryKey)
	if !ok {
		return 255
	}
	return entry(&prog.Call{Ctx: t, Args: args})
}

// Prelinked is what the offline prelinker learned about one frozen
// filesystem image: every dylib it parsed, with its export table, and the
// shared-cache manifest it wrote. It is built once per image, before the
// image is frozen, and is read-only afterwards, so every System booted from
// that image shares it. An entry describes exact bytes, not a path: dyld
// uses it only while the looked-up node still holds the image's own bytes
// (same backing array and length). A rewritten library or a rewritten
// manifest is parsed from scratch and lives only as long as its System.
//
// None of this touches virtual time: dyld charges parse, segment map,
// per-symbol bind and init on every load, whichever way the image was
// decoded.
type Prelinked struct {
	dylibs map[string]*dylib
	cache  *sharedCache
}

// dylib is one decoded library image.
type dylib struct {
	data  []byte
	file  *macho.File
	img   *LoadedImage
	nsyms int // exported-symbol count, one bind charge each
}

// sharedCache is one decoded cache manifest.
type sharedCache struct {
	data       []byte
	totalBytes uint64
	images     []*LoadedImage
}

// sameBytes reports whether a and b are the same stored bytes: one
// backing array, one length.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// dylib returns the library installed at path, decoded: the prelinked
// entry when data is the image's own copy, otherwise a fresh parse.
func (p *Prelinked) dylib(path string, data []byte) (*dylib, error) {
	if p != nil {
		if d := p.dylibs[path]; d != nil && sameBytes(d.data, data) {
			return d, nil
		}
	}
	return parseDylib(path, data)
}

// sharedCache returns the manifest in data, decoded: the prelinked one
// when data is the image's own copy, otherwise a fresh decode.
func (p *Prelinked) sharedCache(data []byte) (*sharedCache, error) {
	if p != nil && sameBytes(p.cache.data, data) {
		return p.cache, nil
	}
	return decodeManifest(data)
}

func parseDylib(path string, data []byte) (*dylib, error) {
	f, err := macho.Parse(data)
	if err != nil || f.FileType != macho.TypeDylib {
		return nil, fmt.Errorf("dyld: %s is not a dylib", path)
	}
	syms := f.ExportedSymbols()
	img := &LoadedImage{Path: path, Exports: make(map[string]string, len(syms))}
	for _, sym := range syms {
		img.Exports[sym.Name] = prog.SymbolKey(path, sym.Name)
	}
	return &dylib{data: data, file: f, img: img, nsyms: len(syms)}, nil
}

// mapSize is how much address space a segment takes once mapped.
func mapSize(seg *macho.Segment) uint64 {
	return max(uint64(seg.VMSize), uint64(len(seg.Data)))
}

// loadAll maps every transitive dylib dependency.
func loadAll(t *kernel.Thread, cs costs, images *Images, pre *Prelinked, roots []string) error {
	tk := t.Task()
	st := libsystem.ForTask(tk)
	k := t.Kernel()
	work := append([]string(nil), roots...)
	for len(work) > 0 {
		path := work[0]
		work = work[1:]
		if images.Has(path) {
			continue
		}
		node, err := k.Root().Lookup(path)
		if err != nil {
			if tr := k.Tracer(); tr != nil {
				tr.Count(trace.CounterDyldLoadErrors, 1)
			}
			return fmt.Errorf("dyld: library not loaded: %s", path)
		}
		// Opening + faulting in the load commands; dyld mmaps rather than
		// reads, so only the metadata pages cost storage time.
		t.Charge(k.Device().Storage.OpLatency)
		t.Charge(cs.parse)
		d, derr := pre.dylib(path, node.Data())
		if derr != nil {
			return derr
		}
		// Map segments at their full VM size — this is where the ~90 MB
		// of an iOS process's library footprint comes from.
		for _, seg := range d.file.Segments {
			size := mapSize(seg)
			if size == 0 {
				continue
			}
			t.Charge(k.Costs().SegmentMap)
			if _, merr := tk.Mem().Map(0, size, mem.ProtRead|mem.ProtExec, path, false); merr != nil {
				if tr := k.Tracer(); tr != nil {
					tr.Count(trace.CounterDyldLoadErrors, 1)
				}
				return merr
			}
		}
		// One bind charge per exported symbol, however the image was
		// decoded.
		for i := 0; i < d.nsyms; i++ {
			t.Charge(cs.bindSym)
		}
		if tr := k.Tracer(); tr != nil {
			tr.Count(trace.CounterDyldBinds, uint64(len(d.img.Exports)))
			tr.Count(trace.CounterDyldImages, 1)
		}
		images.list = append(images.list, d.img)
		images.byPath[path] = d.img
		// Run the image initializer and register its teardown hooks: one
		// atexit handler and one pthread_atfork triple per library.
		t.Charge(cs.initImage)
		registerImageHandlers(st, cs)
		work = append(work, d.file.Dylibs...)
	}
	return nil
}

// registerImageHandlers models the per-library callbacks dyld registers:
// "for each library, dyld registers a callback that is called on exit,
// resulting in the execution of 115 handlers on exit", plus the
// pthread_atfork callbacks iOS libraries install.
func registerImageHandlers(st *libsystem.State, cs costs) {
	st.AtExit(func(ht *kernel.Thread) { ht.Charge(cs.atexitH) })
	st.AtFork(
		func(ht *kernel.Thread) { ht.Charge(cs.atforkH) }, // prepare
		func(ht *kernel.Thread) { ht.Charge(cs.atforkH) }, // parent
		func(ht *kernel.Thread) { ht.Charge(cs.atforkH) }, // child
	)
}

// decodeManifest decodes a serialized cache manifest and builds its image
// table.
func decodeManifest(data []byte) (*sharedCache, error) {
	var m cacheManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	c := &sharedCache{data: data, totalBytes: m.TotalBytes}
	for _, ci := range m.Images {
		img := &LoadedImage{Path: ci.Path, Exports: make(map[string]string, len(ci.Exports))}
		for _, sym := range ci.Exports {
			img.Exports[sym] = prog.SymbolKey(ci.Path, sym)
		}
		c.images = append(c.images, img)
	}
	return c, nil
}

// attachSharedCache maps the prelinked cache as a single submap region and
// installs its image table without touching the filesystem per library.
func attachSharedCache(t *kernel.Thread, cs costs, images *Images, pre *Prelinked) bool {
	k := t.Kernel()
	node, err := k.Root().Lookup(SharedCachePath)
	if err != nil {
		return false
	}
	c, derr := pre.sharedCache(node.Data())
	if derr != nil {
		return false
	}
	t.Charge(cs.cacheAttach)
	r, merr := t.Task().Mem().Map(0, c.totalBytes, mem.ProtRead|mem.ProtExec, "dyld_shared_cache", false)
	if merr != nil {
		return false
	}
	if tr := k.Tracer(); tr != nil {
		tr.Count(trace.CounterDyldCacheAttach, 1)
		tr.Count(trace.CounterDyldImages, uint64(len(c.images)))
	}
	r.Submap = true // nested map: fork never copies these PTEs
	st := libsystem.ForTask(t.Task())
	for _, img := range c.images {
		images.list = append(images.list, img)
		images.byPath[img.Path] = img
	}
	// Prelinking consolidates initializers and teardown hooks.
	for i := 0; i < cacheHandlerGroups; i++ {
		t.Charge(cs.initImage)
		registerImageHandlers(st, cs)
	}
	return true
}

// Prelink is the offline prelinker Apple's update process runs: it
// decodes every library in libs from fs, writes the shared-cache manifest
// for them at SharedCachePath, and returns the table of both. fs is a boot
// image under construction; the table describes the bytes now in it, so
// the caller freezes fs next and never rewrites it in place.
func Prelink(fs *vfs.FS, libs []string) (*Prelinked, error) {
	p := &Prelinked{dylibs: make(map[string]*dylib, len(libs))}
	var manifest cacheManifest
	var images []*LoadedImage
	for _, path := range libs {
		node, err := fs.Lookup(path)
		if err != nil {
			return nil, err
		}
		d, err := parseDylib(path, node.Data())
		if err != nil {
			return nil, err
		}
		p.dylibs[path] = d
		images = append(images, d.img)
		ci := cacheImage{Path: path}
		for _, sym := range d.file.ExportedSymbols() {
			ci.Exports = append(ci.Exports, sym.Name)
		}
		for _, seg := range d.file.Segments {
			manifest.TotalBytes += mapSize(seg)
		}
		manifest.Images = append(manifest.Images, ci)
	}
	data, err := json.Marshal(&manifest)
	if err != nil {
		return nil, err
	}
	if err := fs.WriteFile(SharedCachePath, data); err != nil {
		return nil, err
	}
	node, err := fs.Lookup(SharedCachePath)
	if err != nil {
		return nil, err
	}
	// The manifest lists exactly the images just built, so the cache
	// shares them rather than decoding its own copies.
	p.cache = &sharedCache{data: node.Data(), totalBytes: manifest.TotalBytes, images: images}
	return p, nil
}
