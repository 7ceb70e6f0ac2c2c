package conzone

import (
	"fmt"

	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/nand"
)

// Power-loss injection and crash-consistent recovery.
//
// ArmPowerCut schedules a cut at a virtual-time instant: the first media
// operation that would complete after the instant is torn (nothing of it
// reaches the media) and the device dies — every subsequent command fails
// with ErrPowerLoss. A cut loses all volatile state: write-buffer contents
// that were never flushed, queued commands, the RAM mapping table and zone
// write pointers. Remount then rebuilds the device from the surviving
// media alone, exactly as a real drive's mount path would: everything a
// successful flush barrier acknowledged reads back, and every zone's write
// pointer matches its durable data.

// ErrPowerLoss reports a command issued at or after an armed power cut.
var ErrPowerLoss = nand.ErrPowerLoss

// The two ways OpenImage refuses a file, matchable with errors.Is; the
// message names the section and file offset of the first broken rule.
var (
	// ErrImageFormat: the file is not a NAND image of a format this build
	// reads — wrong magic, or a version it does not know.
	ErrImageFormat = nand.ErrImageFormat
	// ErrImageCorrupt: the file is an image and is damaged — a checksum
	// mismatch, a truncation, or media state no device could have been in.
	ErrImageCorrupt = nand.ErrImageCorrupt
)

// StatusPowerLoss classifies a completion that failed to power loss.
const StatusPowerLoss = host.StatusPowerLoss

// ArmPowerCut arms a power cut at virtual instant at. The device operates
// normally until a media operation would complete past the instant; that
// operation is torn atomically and the device is dead from then on.
// Re-arming moves the instant; the cut fires at most once.
func (d *Device) ArmPowerCut(at Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.f.ArmPowerCut(at)
}

// PowerLost reports whether an armed power cut has fired. Queued
// asynchronous commands are dispatched first, so a cut one of them tears
// counts.
func (d *Device) PowerLost() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advance(d.h.Kick())
	return d.f.PowerLost()
}

// Remount powers the device back on and recovers it from the surviving
// media: the L2P mapping, zone write pointers, SLC staging allocator,
// superblock bindings, grown-bad-block table and spare pool are all rebuilt
// by replaying the metadata journal and scanning the per-sector OOB stamps.
// The fault injector's RNG stream and script cursors carry across, so a
// crashed-and-remounted run sees the same fault sequence an uninterrupted
// run would. The host interface is rebuilt with its current queue layout;
// in-flight and queued commands from before the cut are gone, as on real
// hardware. The virtual clock keeps running across the remount.
func (d *Device) Remount() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, done, err := d.f.Remount()
	if err == nil {
		err = d.mount(f, d.h.Configuration(), done)
	}
	if err != nil {
		return fmt.Errorf("conzone: remount: %w", err)
	}
	return nil
}

// SaveImage persists the NAND media — programmed payloads, per-chip append
// points, erase counts, OOB stamps and the metadata journal — to a
// file-backed image, atomically: the file is written beside path and moved
// over it once complete, so a failed save leaves any previous image intact.
// The image is sparse and deterministic — its size follows what the media
// holds, and one device state has one encoding. Queued asynchronous
// commands are dispatched first so the image reflects every completion the
// host has seen. Volatile state (write buffers, mapping table, caches) is
// deliberately not saved: an image reopened with OpenImage goes through the
// same recovery scan a crashed device does, so saving at an arbitrary
// instant is equivalent to cutting power there.
func (d *Device) SaveImage(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advance(d.h.Kick())
	return d.f.Array().SaveImage(path)
}

// OpenImage builds a device over a NAND image saved with SaveImage, by this
// build or an earlier one. The file is verified before it is believed; a
// refusal matches ErrImageFormat or ErrImageCorrupt. The configuration
// must describe the same geometry the image was taken under;
// the FTL parameters and latency table may differ (they are host-side
// state). The device recovers exactly as Remount does and starts its
// virtual clock at zero. Fault-injector streams do not persist in the
// image: a fresh injector is built from cfg's fault configuration.
func OpenImage(cfg Config, path string) (*Device, error) {
	if err := cfg.Latency.ValidateFor(cfg.Geometry); err != nil {
		return nil, fmt.Errorf("conzone: %w", err)
	}
	arr, err := nand.LoadArray(path, cfg.Latency)
	if err != nil {
		return nil, fmt.Errorf("conzone: %w", err)
	}
	if arr.Geometry() != cfg.Geometry {
		return nil, fmt.Errorf("conzone: image geometry %+v does not match configuration %+v",
			arr.Geometry(), cfg.Geometry)
	}
	f, done, err := ftl.Recover(arr, cfg.FTL)
	if err != nil {
		return nil, fmt.Errorf("conzone: open image: %w", err)
	}
	d := &Device{}
	if err := d.mount(f, host.Config{}, done); err != nil {
		return nil, err
	}
	return d, nil
}
