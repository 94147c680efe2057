// Package ipa implements the iOS App Store package pipeline of
// Section 6.1: .ipa archives (zip containers holding Payload/<App>.app),
// FairPlay-style binary encryption keyed to device secrets, the
// jailbroken-device decryption flow ("the script decrypts the app, and
// then re-packages the decrypted binary, along with any associated data
// files, into a single .ipa file"), and installation onto a Cider device —
// unpacking the app and creating an Android Launcher shortcut pointing at
// CiderPress.
package ipa

import (
	"archive/zip"
	"bytes"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"

	"repro/internal/macho"
	"repro/internal/vfs"
)

// DeviceKey models the per-device-class FairPlay secret held in "encrypted,
// non-volatile memory found in an Apple device".
type DeviceKey struct {
	// Seed is the key material.
	Seed uint64
}

// keystream generates the XOR stream for a key (xorshift64*; stdlib-only
// stand-in for the real cipher).
func (k DeviceKey) keystream(n int) []byte {
	out := make([]byte, n)
	x := k.Seed | 1
	for i := 0; i < n; i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		v := x * 0x2545F4914F6CDD1D
		for j := 0; j < 8 && i+j < n; j++ {
			out[i+j] = byte(v >> (8 * j))
		}
	}
	return out
}

// EncryptBinary wraps a clear Mach-O executable the way the App Store
// does: add LC_ENCRYPTION_INFO covering __TEXT with CryptID=1 and encrypt
// that range with the device-class key.
func EncryptBinary(clear []byte, key DeviceKey) ([]byte, error) {
	f, err := macho.Parse(clear)
	if err != nil {
		return nil, err
	}
	if f.Encrypted() {
		return nil, fmt.Errorf("ipa: binary already encrypted")
	}
	f.Encryption = &macho.EncryptionInfo{CryptID: 1} // Marshal fills range
	out, err := f.Marshal()
	if err != nil {
		return nil, err
	}
	g, err := macho.Parse(out)
	if err != nil {
		return nil, err
	}
	enc := g.Encryption
	if enc == nil || int(enc.CryptOff+enc.CryptSize) > len(out) {
		return nil, fmt.Errorf("ipa: bad encryption range")
	}
	ks := key.keystream(int(enc.CryptSize))
	for i := range ks {
		out[int(enc.CryptOff)+i] ^= ks[i]
	}
	return out, nil
}

// DecryptBinary reverses EncryptBinary using the device key — what the
// gdb-based script does on a jailbroken iPhone: dump the decrypted text
// and clear CryptID.
func DecryptBinary(encrypted []byte, key DeviceKey) ([]byte, error) {
	f, err := macho.Parse(encrypted)
	if err != nil {
		return nil, err
	}
	if !f.Encrypted() {
		return nil, fmt.Errorf("ipa: binary is not encrypted")
	}
	enc := f.Encryption
	if int(enc.CryptOff+enc.CryptSize) > len(encrypted) {
		return nil, fmt.Errorf("ipa: bad encryption range")
	}
	out := append([]byte(nil), encrypted...)
	ks := key.keystream(int(enc.CryptSize))
	for i := range ks {
		out[int(enc.CryptOff)+i] ^= ks[i]
	}
	g, err := macho.Parse(out)
	if err != nil {
		return nil, fmt.Errorf("ipa: wrong device key: %w", err)
	}
	g.Encryption.CryptID = 0
	return g.Marshal()
}

// App describes one packaged application.
type App struct {
	// Name is the app bundle name ("Calculator Pro").
	Name string
	// BundleID is the reverse-DNS identifier.
	BundleID string
	// Binary is the Mach-O executable.
	Binary []byte
	// Assets are extra bundle files (icons, nibs, data), by relative path.
	Assets map[string][]byte
}

// infoPlist renders the minimal Info.plist the simulation consumes.
func (a *App) infoPlist() []byte {
	return []byte(fmt.Sprintf(
		"CFBundleName=%s\nCFBundleIdentifier=%s\nCFBundleExecutable=%s\n",
		a.Name, a.BundleID, a.Name))
}

// assetNames lists the asset paths in sorted order, so archives and
// installs do not depend on map iteration order.
func (a *App) assetNames() []string {
	names := make([]string, 0, len(a.Assets))
	for name := range a.Assets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Build produces the .ipa archive: a zip with the standard
// Payload/<Name>.app/ layout.
func Build(a *App) ([]byte, error) {
	if a.Name == "" || strings.ContainsAny(a.Name, "/\\") {
		return nil, fmt.Errorf("ipa: bad app name %q", a.Name)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	base := "Payload/" + a.Name + ".app/"
	write := func(name string, data []byte) error {
		w, err := zw.Create(base + name)
		if err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	}
	if err := write(a.Name, a.Binary); err != nil {
		return nil, err
	}
	if err := write("Info.plist", a.infoPlist()); err != nil {
		return nil, err
	}
	for _, name := range a.assetNames() {
		if err := write(name, a.Assets[name]); err != nil {
			return nil, err
		}
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Parse opens a .ipa archive.
func Parse(ipa []byte) (*App, error) {
	zr, err := zip.NewReader(bytes.NewReader(ipa), int64(len(ipa)))
	if err != nil {
		return nil, fmt.Errorf("ipa: not a zip archive: %w", err)
	}
	app := &App{Assets: map[string][]byte{}}
	var plist []byte
	files := map[string][]byte{}
	for _, zf := range zr.File {
		if !strings.HasPrefix(zf.Name, "Payload/") {
			continue
		}
		rest := strings.TrimPrefix(zf.Name, "Payload/")
		dir, file, ok := strings.Cut(rest, "/")
		if !ok || !strings.HasSuffix(dir, ".app") {
			continue
		}
		if app.Name == "" {
			app.Name = strings.TrimSuffix(dir, ".app")
		}
		rc, err := zf.Open()
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
		files[file] = data
		if file == "Info.plist" {
			plist = data
		}
	}
	if app.Name == "" {
		return nil, fmt.Errorf("ipa: no Payload/<App>.app in archive")
	}
	for _, line := range strings.Split(string(plist), "\n") {
		if v, ok := strings.CutPrefix(line, "CFBundleIdentifier="); ok {
			app.BundleID = v
		}
	}
	bin, ok := files[app.Name]
	if !ok {
		return nil, fmt.Errorf("ipa: missing executable %q", app.Name)
	}
	app.Binary = bin
	for name, data := range files {
		if name != app.Name && name != "Info.plist" {
			app.Assets[name] = data
		}
	}
	return app, nil
}

// Decrypt re-packages an encrypted .ipa with its binary decrypted — the
// full jailbroken-device script flow.
func Decrypt(encrypted []byte, key DeviceKey) ([]byte, error) {
	app, err := Parse(encrypted)
	if err != nil {
		return nil, err
	}
	clear, err := DecryptBinary(app.Binary, key)
	if err != nil {
		return nil, err
	}
	app.Binary = clear
	return Build(app)
}

// Installed describes an app installed on a Cider device.
type Installed struct {
	// ExecPath is the app binary's path in the iOS hierarchy.
	ExecPath string
	// BundleDir is the .app directory.
	BundleDir string
	// SandboxDir is the app's data container (/Documents home).
	SandboxDir string
	// ShortcutPath is the Android Launcher shortcut file.
	ShortcutPath string
}

// Install unpacks a (decrypted) .ipa onto the device: the bundle goes into
// /Applications, a sandbox container is created, and an Android Launcher
// shortcut pointing at CiderPress is written — "a small background process
// automatically unpacked each .ipa and created Android shortcuts on the
// Launcher home screen, pointing each one to the CiderPress Android app"
// (Section 6.1). ciderPressPath names the proxy binary the shortcut
// launches.
func Install(iosFS *vfs.FS, androidFS *vfs.FS, ipaBytes []byte, ciderPressPath string) (*Installed, error) {
	app, err := Parse(ipaBytes)
	if err != nil {
		return nil, err
	}
	mf, err := macho.Parse(app.Binary)
	if err != nil {
		return nil, fmt.Errorf("ipa: app binary is not Mach-O: %w", err)
	}
	if mf.Encrypted() {
		return nil, fmt.Errorf("ipa: %s is still FairPlay-encrypted; decrypt on an Apple device first", app.Name)
	}
	inst := &Installed{
		BundleDir:    "/Applications/" + app.Name + ".app",
		ExecPath:     "/Applications/" + app.Name + ".app/" + app.Name,
		SandboxDir:   "/var/mobile/Applications/" + app.BundleID,
		ShortcutPath: "/data/launcher/" + app.Name + ".shortcut",
	}
	if err := iosFS.WriteFile(inst.ExecPath, app.Binary); err != nil {
		return nil, err
	}
	for _, name := range app.assetNames() {
		if err := iosFS.WriteFile(path.Join(inst.BundleDir, name), app.Assets[name]); err != nil {
			return nil, err
		}
	}
	if err := iosFS.WriteFile(path.Join(inst.BundleDir, "Info.plist"), app.infoPlist()); err != nil {
		return nil, err
	}
	for _, d := range []string{"Documents", "Library", "tmp"} {
		if err := iosFS.MkdirAll(path.Join(inst.SandboxDir, d)); err != nil {
			return nil, err
		}
	}
	// The Launcher shortcut: icon + target (CiderPress) + payload (app).
	shortcut := fmt.Sprintf("target=%s\nargv=%s\nicon=%s\n",
		ciderPressPath, inst.ExecPath, path.Join(inst.BundleDir, "Icon.png"))
	if androidFS != nil {
		if err := androidFS.WriteFile(inst.ShortcutPath, []byte(shortcut)); err != nil {
			return nil, err
		}
	}
	return inst, nil
}
