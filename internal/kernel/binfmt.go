package kernel

import (
	"fmt"

	"repro/internal/elfx"
	"repro/internal/mem"
	"repro/internal/persona"
	"repro/internal/prog"
)

// BinFmt is a binary-format loader, mirroring Linux's binfmt handler chain.
// Load must return ENOEXEC — without touching the task's address space —
// when data is not in its format, so exec can probe the next loader.
type BinFmt interface {
	// Name identifies the loader ("binfmt_elf", "binfmt_macho").
	Name() string
	// Recognize reports whether data is in this loader's format; exec uses
	// it to decide the point of no return before destroying the old image.
	Recognize(data []byte) bool
	// Load maps the image into the calling thread's task and returns its
	// entry function.
	Load(t *Thread, path string, data []byte, argv []string) (prog.Func, Errno)
}

// ELFLoader is the domestic binary loader (binfmt_elf). Dynamically linked
// executables are started through the user-space linker program registered
// under LinkerKey; static executables jump straight to their entry payload.
type ELFLoader struct {
	// LinkerKey is the registry key of the user-space dynamic linker
	// (Android's /system/bin/linker, provided by internal/bionic). Empty
	// means only static binaries can run.
	LinkerKey string
}

// Name implements BinFmt.
func (l *ELFLoader) Name() string { return "binfmt_elf" }

// Recognize implements BinFmt.
func (l *ELFLoader) Recognize(data []byte) bool {
	_, err := elfx.Parse(data)
	return err == nil
}

// Load implements BinFmt.
func (l *ELFLoader) Load(t *Thread, path string, data []byte, argv []string) (prog.Func, Errno) {
	f, err := elfx.Parse(data)
	if err != nil {
		if _, bad := err.(*elfx.ErrBadMagic); bad {
			return nil, ENOEXEC
		}
		return nil, ENOEXEC
	}
	if f.Type != elfx.TypeExec && f.Type != elfx.TypeDyn {
		return nil, ENOEXEC
	}
	k := t.k
	// Tag the thread with the domestic persona — the mirror image of the
	// Mach-O loader's iOS tagging, so an iOS process exec'ing an Android
	// binary ends up with the right kernel ABI. As in the Mach-O loader,
	// every failure past this point must restore the caller's persona and
	// unmap whatever was mapped so far.
	prevPersona := t.Persona.Current()
	if k.PersonaAware() {
		t.Persona.Switch(persona.Android)
	}
	var mapped []uint64
	rollback := func() {
		for i := len(mapped) - 1; i >= 0; i-- {
			t.task.mem.Unmap(mapped[i])
		}
		t.Persona.Switch(prevPersona)
	}
	// Map the loadable segments.
	for i, seg := range f.Segments {
		t.Charge(k.costs.SegmentMap)
		prot := elfProt(seg.Flags)
		size := uint64(seg.MemSize)
		if size < uint64(len(seg.Data)) {
			size = uint64(len(seg.Data))
		}
		if size == 0 {
			continue
		}
		r, merr := t.task.mem.Map(0, size, prot, fmt.Sprintf("%s[%d]", path, i), false)
		if merr != nil {
			rollback()
			return nil, ENOMEM
		}
		mapped = append(mapped, r.Base)
		if len(seg.Data) > 0 {
			copy(r.Backing().Bytes(), seg.Data)
		}
	}
	// Map a stack.
	if r, merr := t.task.mem.Map(0, 1<<20, mem.ProtRead|mem.ProtWrite, "[stack]", false); merr != nil {
		rollback()
		return nil, ENOMEM
	} else {
		mapped = append(mapped, r.Base)
	}

	entryKey, perr := textPayload(f)
	if perr != nil {
		rollback()
		return nil, ENOEXEC
	}

	if len(f.Needed) > 0 {
		// Dynamic executable: run through the user-space linker, which
		// loads DT_NEEDED libraries and then calls the program entry.
		if l.LinkerKey == "" {
			rollback()
			return nil, ENOEXEC
		}
		linker, ok := k.registry.Lookup(l.LinkerKey)
		if !ok {
			rollback()
			return nil, ENOEXEC
		}
		needed := append([]string(nil), f.Needed...)
		return func(c *prog.Call) uint64 {
			lc := &prog.Call{Ctx: c.Ctx, Args: c.Args}
			// The linker contract: Ctx carries the thread; the linker
			// reads its work order from the task's user data.
			th := c.Ctx.(*Thread)
			th.task.SetUserData("linker.needed", needed)
			th.task.SetUserData("linker.entry", entryKey)
			return linker(lc)
		}, OK
	}

	entry, ok := k.registry.Lookup(entryKey)
	if !ok {
		rollback()
		return nil, ENOEXEC
	}
	return entry, OK
}

// textPayload extracts the program key from the first executable segment.
func textPayload(f *elfx.File) (string, error) {
	for _, seg := range f.Segments {
		if seg.Flags&elfx.FlagX != 0 && len(seg.Data) > 0 {
			return prog.ParseTextPayload(seg.Data)
		}
	}
	return "", fmt.Errorf("kernel: no executable segment payload")
}

func elfProt(flags uint32) mem.Prot {
	var p mem.Prot
	if flags&elfx.FlagR != 0 {
		p |= mem.ProtRead
	}
	if flags&elfx.FlagW != 0 {
		p |= mem.ProtWrite
	}
	if flags&elfx.FlagX != 0 {
		p |= mem.ProtExec
	}
	return p
}
