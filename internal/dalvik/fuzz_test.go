package dalvik

import (
	"testing"
	"testing/quick"
)

// TestParseNeverPanics: the dex parser consumes app-store bytes.
func TestParseNeverPanics(t *testing.T) {
	check := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		Parse(data)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestParseCorruptedValid mutates a valid dex container; Parse must never
// panic, and a successful parse must still be safely executable (the VM
// traps on bad code rather than panicking). Each parsed mutant runs with
// n = MinInt64, so it leaves the loop at its first bound check however
// its start value or step was mutated.
func TestParseCorruptedValid(t *testing.T) {
	good, err := sumLoop().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for off := 0; off < len(good); off++ {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0xFF
		var f *File
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parse panicked at offset %d: %v", off, r)
				}
			}()
			f, _ = Parse(mut)
		}()
		if f == nil {
			continue
		}
		execVM(t, f, "main", 1<<63)
		ran++
	}
	if ran == 0 {
		t.Fatal("no mutant parsed")
	}
	t.Logf("%d of %d mutants parsed and ran", ran, len(good))
}
