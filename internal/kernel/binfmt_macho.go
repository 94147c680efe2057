package kernel

import (
	"fmt"

	"repro/internal/macho"
	"repro/internal/mem"
	"repro/internal/persona"
	"repro/internal/prog"
)

// MachOLoader is Cider's kernel Mach-O binary loader (Section 4.1): it
// interprets the Mach-O image, loads its text and data segments, tags the
// current thread with the iOS persona, and transfers control to the
// user-space dynamic linker, dyld, named by the image's LC_LOAD_DYLINKER
// command — exactly the sequence XNU's own loader performs.
type MachOLoader struct {
	// DyldFallbackKey resolves the dylinker when its binary is not present
	// in the filesystem (tests); normally the dylinker path is looked up
	// and its own Mach-O text payload provides the key.
	DyldFallbackKey string
}

// Name implements BinFmt.
func (l *MachOLoader) Name() string { return "binfmt_macho" }

// Recognize implements BinFmt. Binfmt probing runs on every exec, so it
// sniffs the eight header bytes it needs instead of decoding the image;
// Load re-validates with a full parse.
func (l *MachOLoader) Recognize(data []byte) bool {
	filetype, ok := macho.Sniff(data)
	return ok && filetype == macho.TypeExecute
}

// UserData keys through which the loader hands dyld its work order (the
// simulated equivalent of the dyld bootstrap stack frame).
const (
	// DyldExePathKey is the main executable's path.
	DyldExePathKey = "dyld.exe_path"
	// DyldEntryKey is the main executable's program key.
	DyldEntryKey = "dyld.entry_key"
	// DyldNeededKey is the main executable's LC_LOAD_DYLIB list.
	DyldNeededKey = "dyld.needed"
)

// Load implements BinFmt.
func (l *MachOLoader) Load(t *Thread, path string, data []byte, argv []string) (prog.Func, Errno) {
	f, err := macho.Parse(data)
	if err != nil {
		return nil, ENOEXEC
	}
	if f.FileType != macho.TypeExecute {
		return nil, ENOEXEC
	}
	if f.Encrypted() {
		// App Store binaries are FairPlay-encrypted; only an Apple device
		// holds the keys. Cider cannot run them until they are decrypted
		// (Section 6.1) — the kernel rejects them.
		return nil, EACCES
	}
	k := t.k

	// "When a Mach-O binary is loaded, the kernel tags the current thread
	// with an iOS persona" (Section 4.1). Every failure past this point
	// must undo the tag and every mapping made so far: exec's contract is
	// that a failed load leaves the caller's image untouched, and during
	// binfmt probing a partial image would corrupt the next loader's view.
	prevPersona := t.Persona.Current()
	t.Persona.Switch(persona.IOS)
	var mapped []uint64
	rollback := func() {
		for i := len(mapped) - 1; i >= 0; i-- {
			t.task.mem.Unmap(mapped[i])
		}
		t.Persona.Switch(prevPersona)
	}

	// Map the segments.
	var entryKey string
	for _, seg := range f.Segments {
		t.Charge(k.costs.SegmentMap)
		size := uint64(seg.VMSize)
		if size < uint64(len(seg.Data)) {
			size = uint64(len(seg.Data))
		}
		if size == 0 {
			continue
		}
		r, merr := t.task.mem.Map(0, size, machoProt(seg.Prot), fmt.Sprintf("%s %s", path, seg.Name), false)
		if merr != nil {
			rollback()
			return nil, ENOMEM
		}
		mapped = append(mapped, r.Base)
		if len(seg.Data) > 0 {
			copy(r.Backing().Bytes(), seg.Data)
		}
		if seg.Name == "__TEXT" {
			if key, perr := prog.ParseTextPayload(seg.Data); perr == nil {
				entryKey = key
			}
		}
	}
	if entryKey == "" {
		rollback()
		return nil, ENOEXEC
	}
	if r, merr := t.task.mem.Map(0, 1<<20, mem.ProtRead|mem.ProtWrite, "[stack]", false); merr != nil {
		rollback()
		return nil, ENOMEM
	} else {
		mapped = append(mapped, r.Base)
	}

	// Hand off to dyld, exactly as the XNU Mach-O loader invokes the
	// dylinker to finish the launch in user space.
	dyldKey, errno := l.resolveDylinker(t, f.Dylinker)
	if errno != OK {
		rollback()
		return nil, errno
	}
	dyldEntry, ok := k.registry.Lookup(dyldKey)
	if !ok {
		rollback()
		return nil, ENOEXEC
	}
	needed := append([]string(nil), f.Dylibs...)
	return func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		th.task.SetUserData(DyldExePathKey, path)
		th.task.SetUserData(DyldEntryKey, entryKey)
		th.task.SetUserData(DyldNeededKey, needed)
		return dyldEntry(&prog.Call{Ctx: th, Args: c.Args})
	}, OK
}

// resolveDylinker finds the program key of the dylinker binary: it reads
// the dylinker's own Mach-O image from the filesystem and extracts its
// text payload, falling back to DyldFallbackKey.
func (l *MachOLoader) resolveDylinker(t *Thread, dylinker string) (string, Errno) {
	if dylinker == "" {
		if l.DyldFallbackKey != "" {
			return l.DyldFallbackKey, OK
		}
		return "", ENOEXEC
	}
	node, err := t.k.root.Lookup(dylinker)
	if err != nil {
		if l.DyldFallbackKey != "" {
			return l.DyldFallbackKey, OK
		}
		return "", ErrnoFromVFS(err)
	}
	t.Charge(t.k.device.Storage.ReadTime(node.Size()))
	df, perr := macho.Parse(node.Data())
	if perr != nil {
		return "", ENOEXEC
	}
	text := df.Segment("__TEXT")
	if text == nil {
		return "", ENOEXEC
	}
	key, kerr := prog.ParseTextPayload(text.Data)
	if kerr != nil {
		return "", ENOEXEC
	}
	return key, OK
}

func machoProt(p uint32) mem.Prot {
	var out mem.Prot
	if p&macho.ProtRead != 0 {
		out |= mem.ProtRead
	}
	if p&macho.ProtWrite != 0 {
		out |= mem.ProtWrite
	}
	if p&macho.ProtExecute != 0 {
		out |= mem.ProtExec
	}
	return out
}
