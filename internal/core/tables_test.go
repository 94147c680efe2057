package core

import (
	"sync"
	"testing"

	"repro/internal/abi"
	"repro/internal/kernel"
	"repro/internal/persona"
)

// TestBootsShareSyscallTables pins the persona syscall tables as
// process-wide data: every boot of a configuration installs the same
// *kernel.SyscallTable values, so a boot that built its own table would
// fail here. The boots run concurrently, so under -race this also checks
// the tables' one-time construction.
func TestBootsShareSyscallTables(t *testing.T) {
	type boot struct {
		name string
		new  func() (*System, error)
		// want is the table each persona should be served by.
		want [persona.NumKinds]*kernel.SyscallTable
	}
	var want [3][persona.NumKinds]*kernel.SyscallTable
	want[ConfigVanilla][persona.Android] = kernel.LinuxTable(false)
	want[ConfigCider][persona.Android] = kernel.LinuxTable(true)
	want[ConfigCider][persona.IOS] = abi.XNUTable(true)
	want[ConfigIPad][persona.IOS] = abi.XNUTable(false)
	var boots []boot
	for _, cfg := range []Config{ConfigVanilla, ConfigCider, ConfigIPad} {
		boots = append(boots, boot{cfg.String(), func() (*System, error) { return NewSystem(cfg) }, want[cfg]})
	}
	boots = append(boots, boot{"minimal-cider", NewMinimalCider, want[ConfigCider]})

	got := make([][2][persona.NumKinds]*kernel.SyscallTable, len(boots))
	var wg sync.WaitGroup
	for i, b := range boots {
		for j := range got[i] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sys, err := b.new()
				if err != nil {
					t.Error(err)
					return
				}
				for kind := range persona.NumKinds {
					got[i][j][kind] = sys.Kernel.SyscallTableFor(persona.Kind(kind))
				}
			}()
		}
	}
	wg.Wait()
	for i, b := range boots {
		for j, tables := range got[i] {
			for kind, tb := range tables {
				if tb != b.want[kind] {
					t.Errorf("%s boot %d: %s table %p, want the shared %p",
						b.name, j, persona.Kind(kind), tb, b.want[kind])
				}
			}
		}
	}
	if kernel.LinuxTable(false) == kernel.LinuxTable(true) || abi.XNUTable(false) == abi.XNUTable(true) {
		t.Error("persona-aware and plain kernels share a table; set_persona would leak into vanilla and iPad")
	}
}
