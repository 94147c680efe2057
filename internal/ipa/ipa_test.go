package ipa_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/ipa"
	"repro/internal/kernel"
	"repro/internal/macho"
	"repro/internal/prog"
)

func sampleBinary(t *testing.T, key string) []byte {
	t.Helper()
	bin, err := prog.MachOExecutable(key, []string{"/usr/lib/libSystem.B.dylib"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	clear := sampleBinary(t, "app")
	key := ipa.DeviceKey{Seed: 0xA5A5_1234}
	enc, err := ipa.EncryptBinary(clear, key)
	if err != nil {
		t.Fatal(err)
	}
	f, err := macho.Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Encrypted() {
		t.Fatal("binary should carry CryptID=1")
	}
	// The __TEXT payload must actually be scrambled.
	if bytes.Contains(enc, []byte("prog:app")) {
		t.Fatal("text payload still in the clear")
	}
	dec, err := ipa.DecryptBinary(enc, key)
	if err != nil {
		t.Fatal(err)
	}
	g, err := macho.Parse(dec)
	if err != nil {
		t.Fatal(err)
	}
	if g.Encrypted() {
		t.Fatal("decrypted binary should have CryptID=0")
	}
	if !bytes.Contains(dec, []byte("prog:app")) {
		t.Fatal("text payload not restored")
	}
}

func TestDecryptWrongKeyFails(t *testing.T) {
	clear := sampleBinary(t, "app2")
	enc, err := ipa.EncryptBinary(clear, ipa.DeviceKey{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ipa.DecryptBinary(enc, ipa.DeviceKey{Seed: 2})
	if err == nil {
		// Even if the container parses, the payload must be garbage.
		if bytes.Contains(dec, []byte("prog:app2")) {
			t.Fatal("wrong key produced correct plaintext")
		}
	}
}

func TestEncryptTwiceFails(t *testing.T) {
	clear := sampleBinary(t, "app3")
	key := ipa.DeviceKey{Seed: 3}
	enc, _ := ipa.EncryptBinary(clear, key)
	if _, err := ipa.EncryptBinary(enc, key); err == nil {
		t.Fatal("double encryption should fail")
	}
	if _, err := ipa.DecryptBinary(clear, key); err == nil {
		t.Fatal("decrypting a clear binary should fail")
	}
}

func TestBuildParseIPA(t *testing.T) {
	app := &ipa.App{
		Name:     "Calculator Pro",
		BundleID: "com.apalon.calculator",
		Binary:   sampleBinary(t, "calc"),
		Assets:   map[string][]byte{"Icon.png": []byte("PNGDATA"), "Default.png": []byte("SPLASH")},
	}
	pkg, err := ipa.Build(app)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ipa.Parse(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != app.Name || got.BundleID != app.BundleID {
		t.Fatalf("got %q/%q", got.Name, got.BundleID)
	}
	if !bytes.Equal(got.Binary, app.Binary) {
		t.Fatal("binary changed in transit")
	}
	if string(got.Assets["Icon.png"]) != "PNGDATA" {
		t.Fatalf("assets = %v", got.Assets)
	}
}

// TestBuildDeterministic requires one app to package to the same bytes
// on every build: Build must not write Assets in map order.
func TestBuildDeterministic(t *testing.T) {
	app := &ipa.App{
		Name:     "Calculator Pro",
		BundleID: "com.apalon.calculator",
		Binary:   sampleBinary(t, "calc"),
		Assets: map[string][]byte{
			"Icon.png":    []byte("PNGDATA"),
			"Default.png": []byte("SPLASH"),
			"Main.nib":    []byte("NIB"),
		},
	}
	first, err := ipa.Build(app)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 50; i++ {
		pkg, err := ipa.Build(app)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pkg, first) {
			t.Fatalf("build %d differs from build 0", i)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := ipa.Parse([]byte("not a zip")); err == nil {
		t.Fatal("garbage should fail")
	}
}

func TestFullPipelineStoreToLaunch(t *testing.T) {
	// The complete Section 6.1 flow: build an encrypted store package,
	// decrypt it with the device key (the jailbroken-iPhone step), install
	// it on Cider, and launch it through the created shortcut.
	key := ipa.DeviceKey{Seed: 0xFA17_9A7E}
	clear := sampleBinary(t, "papers-app")
	enc, err := ipa.EncryptBinary(clear, key)
	if err != nil {
		t.Fatal(err)
	}
	storePkg, err := ipa.Build(&ipa.App{
		Name: "Papers", BundleID: "com.mekentosj.papers", Binary: enc,
		Assets: map[string][]byte{"Icon.png": []byte("ICON")},
	})
	if err != nil {
		t.Fatal(err)
	}

	sys, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	sys.Registry.MustRegister("papers-app", func(c *prog.Call) uint64 {
		ran = true
		return 0
	})

	// Installing the still-encrypted package must fail (no Apple keys on
	// the Nexus 7).
	if _, err := sys.InstallIPA(storePkg, "", nil); err == nil {
		t.Fatal("encrypted ipa must not install")
	}

	decPkg, err := ipa.Decrypt(storePkg, key)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sys.InstallIPA(decPkg, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.ExecPath != "/Applications/Papers.app/Papers" {
		t.Fatalf("exec path = %s", inst.ExecPath)
	}
	// Sandbox and shortcut exist.
	if _, err := sys.IOSFS.Lookup(inst.SandboxDir + "/Documents"); err != nil {
		t.Fatal("no sandbox Documents dir")
	}
	sc, err := sys.AndroidFS.ReadFile(inst.ShortcutPath)
	if err != nil {
		t.Fatal("no launcher shortcut")
	}
	if !bytes.Contains(sc, []byte("CiderPress")) {
		t.Fatalf("shortcut does not target CiderPress: %s", sc)
	}

	// Launch it directly (the CiderPress path is covered in input tests).
	if _, err := sys.Start(inst.ExecPath, nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("installed app did not run")
	}
}

func TestEncryptedBinaryRefusedByKernel(t *testing.T) {
	// An encrypted binary placed directly on disk must be refused by the
	// Mach-O loader with EACCES.
	sys, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := ipa.EncryptBinary(sampleBinary(t, "sneaky"), ipa.DeviceKey{Seed: 9})
	sys.IOSFS.WriteFile("/Applications/sneaky.app/sneaky", enc)
	sys.Registry.MustRegister("sneaky", func(c *prog.Call) uint64 {
		t.Error("encrypted binary ran")
		return 0
	})
	tk, _ := sys.Start("/Applications/sneaky.app/sneaky", nil)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	_ = tk
	_ = kernel.EACCES
}

func TestPropertyKeystreamSymmetric(t *testing.T) {
	check := func(seed uint64, data []byte) bool {
		if len(data) < 64 {
			return true
		}
		key := "prop"
		bin, err := prog.MachOExecutable(key, nil, nil)
		if err != nil {
			return false
		}
		k := ipa.DeviceKey{Seed: seed}
		enc, err := ipa.EncryptBinary(bin, k)
		if err != nil {
			return false
		}
		dec, err := ipa.DecryptBinary(enc, k)
		if err != nil {
			return false
		}
		// Decryption must restore a parseable, unencrypted image with the
		// original payload.
		f, err := macho.Parse(dec)
		return err == nil && !f.Encrypted() && bytes.Contains(dec, []byte("prog:prop"))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestShortcutLaunchesThroughCiderPress: tapping the Launcher icon created
// at install time starts CiderPress, which launches the iOS app — the full
// §3 + §6.1 loop.
func TestShortcutLaunchesThroughCiderPress(t *testing.T) {
	sys, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	sys.Registry.MustRegister("shortcut-app", func(c *prog.Call) uint64 {
		ran = true
		return 0
	})
	bin := sampleBinary(t, "shortcut-app")
	pkg, err := ipa.Build(&ipa.App{Name: "Tap", BundleID: "com.example.tap", Binary: bin})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sys.InstallIPA(pkg, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.OpenShortcut(inst.ShortcutPath); err != nil {
		t.Fatal(err)
	}
	// The app exits on its own (no event loop); stop is unnecessary.
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("tapping the shortcut did not run the iOS app")
	}
	if sys.CiderPress.Launches() != 1 {
		t.Fatalf("CiderPress launches = %d", sys.CiderPress.Launches())
	}
}
