// Package update implements the paper's checksum-verified remote code
// update mechanism (§VI).
//
// Code changes reach a station as a downloaded file; "scripts on the system
// ... automatically download the program, calculate a checksum and if it is
// correct replace the old file with the new one". Because special-command
// output only comes back in the next day's logs (a 24–48 h round trip), the
// verification script also "uploads the MD5sum that it has calculated using
// a HTTP GET ... this enables researchers to know immediately if the
// transfer was successful".
package update

import (
	"crypto/md5" //nolint:gosec // the deployed system used md5sum; fidelity over fashion
	"encoding/hex"
	"errors"
	"fmt"
	"time"
)

// ErrChecksumMismatch is returned when a downloaded artifact fails
// verification; the old version stays installed.
var ErrChecksumMismatch = errors.New("update: checksum mismatch; keeping old version")

// Artifact is a deployable program or script.
type Artifact struct {
	// Name is the install path / identity.
	Name string
	// Version is a human label for reporting.
	Version string
	// Payload is the file content.
	Payload []byte
}

// Checksum returns the artifact's MD5 as lowercase hex — what the station's
// md5sum would print.
func (a Artifact) Checksum() string {
	sum := md5.Sum(a.Payload) //nolint:gosec
	return hex.EncodeToString(sum[:])
}

// Manifest is the expected identity of an artifact, produced in
// Southampton after lab verification on similar hardware.
type Manifest struct {
	// Name must match the artifact.
	Name string
	// MD5 is the expected digest.
	MD5 string
}

// ManifestFor builds the manifest of a verified artifact.
func ManifestFor(a Artifact) Manifest {
	return Manifest{Name: a.Name, MD5: a.Checksum()}
}

// Beacon is the immediate checksum report path (HTTP GET to Southampton).
// It may be nil when no connectivity exists; installation still proceeds,
// researchers just wait for the logs.
type Beacon func(artifact, sum string)

// Installer manages installed artifacts on one station.
type Installer struct {
	installed map[string]Artifact
	history   []InstallEvent
}

// InstallEvent records one attempted installation.
type InstallEvent struct {
	// Version is the artifact's label (empty on corrupt downloads).
	Version string
	// At is when the attempt happened.
	At time.Time
	// OK reports whether verification passed and the file was replaced.
	OK bool
}

// NewInstaller returns an empty installer.
func NewInstaller() *Installer {
	return &Installer{installed: make(map[string]Artifact)}
}

// Installed returns the current artifact for a name.
func (i *Installer) Installed(name string) (Artifact, bool) {
	a, ok := i.installed[name]
	return a, ok
}

// History returns all install attempts, oldest first.
func (i *Installer) History() []InstallEvent {
	out := make([]InstallEvent, len(i.history))
	copy(out, i.history)
	return out
}

// Install verifies a downloaded artifact against its manifest, replaces the
// old version on success, and beacons the computed checksum either way. The
// beacon always carries what the station *computed*, so Southampton can see
// a corrupt transfer immediately.
func (i *Installer) Install(got Artifact, m Manifest, at time.Time, beacon Beacon) error {
	sum := got.Checksum()
	if beacon != nil {
		beacon(got.Name, sum)
	}
	if got.Name != m.Name {
		i.history = append(i.history, InstallEvent{At: at})
		return fmt.Errorf("update: artifact %q does not match manifest %q", got.Name, m.Name)
	}
	if sum != m.MD5 {
		i.history = append(i.history, InstallEvent{At: at})
		return fmt.Errorf("%w: got %s want %s", ErrChecksumMismatch, sum, m.MD5)
	}
	i.installed[got.Name] = got
	i.history = append(i.history, InstallEvent{Version: got.Version, At: at, OK: true})
	return nil
}

// CorruptInTransit returns a copy of a with roughly fraction of its bytes
// damaged, positions chosen by the picker (deterministic with hash noise).
// It models GPRS transfer corruption for failure-injection tests.
func CorruptInTransit(a Artifact, fraction float64, pick func(i int) float64) Artifact {
	out := a
	out.Payload = append([]byte(nil), a.Payload...)
	for idx := range out.Payload {
		if pick(idx) < fraction {
			out.Payload[idx] ^= 0xA5
		}
	}
	return out
}
