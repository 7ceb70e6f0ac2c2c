// Package config assembles validated device configurations. The Paper()
// preset reproduces the evaluation setup of §IV-A: TLC media, two channels
// with two chips each, a 96 KiB programming unit, two shared 384 KiB write
// buffers, ~1.5 GB of flash and a 12 KiB L2P cache scaled down in
// proportion, with the channel bandwidth of UFS 4.0 (3200 MiB/s).
package config

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/conzone/conzone/internal/femu"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/legacy"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/units"
)

// DeviceConfig bundles everything needed to build any of the device models
// over the same media. FEMU and ConfZNS parameterise the two personalities
// of the one FEMU-lineage device; which personality a value builds is
// decided by NewFEMU/NewConfZNS, not by a field.
type DeviceConfig struct {
	Geometry nand.Geometry
	Latency  nand.LatencyTable
	FTL      ftl.Params
	Legacy   legacy.Params
	FEMU     femu.Params
	ConfZNS  femu.Params
}

// Paper returns the §IV-A evaluation configuration.
//
// Derivation: the paper uses TLC, 2 channels x 2 chips, programming unit
// 96 KiB (superpage 384 KiB), flash capacity ~1.5 GB, two 384 KiB write
// buffers, a 12 KiB L2P cache with 4-byte entries, chunk 4 MiB, and a
// 3200 MiB/s channel. Here a block holds 252 pages (42 program units), so
// a superblock holds 15.75 MiB and the pow2-aligned zone is 16 MiB with a
// 256 KiB SLC-resident tail; 96 zones give 1.5 GiB of logical capacity.
func Paper() DeviceConfig {
	return DeviceConfig{
		Geometry: nand.Geometry{
			Channels:         2,
			ChipsPerChannel:  2,
			BlocksPerChip:    108, // 96 normal + 10 SLC + 2 map
			PagesPerBlock:    252,
			SLCPagesPerBlock: 84, // SLC mode stores 1 of TLC's 3 bits
			PageSize:         16 * units.KiB,
			SLCBlocks:        10,
			MapBlocks:        2,
			NormalMedia:      nand.TLC,
			ProgramUnit:      96 * units.KiB,
			SLCProgramUnit:   4 * units.KiB,
			ChannelMiBps:     3200,
		},
		Latency: nand.DefaultLatencies(),
		FTL: ftl.Params{
			NumWriteBuffers: 2,
			L2PCacheBytes:   12 * units.KiB,
			L2PEntryBytes:   4,
			ChunkSectors:    1024, // 4 MiB
			Search:          ftl.Bitmap,
			AggregateZones:  true,
			AlignZones:      true,
		},
		Legacy: legacy.Params{
			L2PCacheBytes:   12 * units.KiB,
			L2PEntryBytes:   4,
			PrefetchWindow:  1023, // §IV-C: one 4 MiB chunk of entries per miss
			GCFreeTarget:    2,
			OverprovisionSB: 7, // ~7% OP, typical for consumer parts
		},
		FEMU: femu.Params{
			VMExitMin: 20 * time.Microsecond,
			VMExitMax: 60 * time.Microsecond,
			Seed:      0x5EED,
		},
		ConfZNS: femu.Params{
			VMExitMin: 20 * time.Microsecond,
			VMExitMax: 60 * time.Microsecond,
			Seed:      0xC0F2,
		},
	}
}

// Small returns a scaled-down configuration for fast tests and examples:
// the same structure as Paper() at 1/25 the media size.
func Small() DeviceConfig {
	c := Paper()
	c.Geometry.BlocksPerChip = 16 // 10 normal + 4 SLC + 2 map
	c.Geometry.PagesPerBlock = 24
	c.Geometry.SLCPagesPerBlock = 8
	c.Geometry.SLCBlocks = 4
	c.FTL.L2PCacheBytes = 4 * units.KiB
	c.FTL.ChunkSectors = 128 // 512 KiB chunks on the small device
	c.Legacy.L2PCacheBytes = 4 * units.KiB
	c.Legacy.PrefetchWindow = 127
	c.Legacy.OverprovisionSB = 3
	return c
}

// QLC returns the Paper configuration with QLC normal media and a 64 KiB
// programming unit (4 pages), whose superblock size is naturally a power
// of two — the geometry used to exercise native (unaligned) zones.
func QLC() DeviceConfig {
	c := Paper()
	c.Geometry.NormalMedia = nand.QLC
	c.Geometry.ProgramUnit = 64 * units.KiB
	c.Geometry.PagesPerBlock = 256 // 64 PUs; superblock 16 MiB exactly
	c.Geometry.SLCPagesPerBlock = 64
	c.FTL.AlignZones = false
	return c
}

// Validate cross-checks the composite configuration.
func (c DeviceConfig) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Latency.Validate(); err != nil {
		return err
	}
	if err := c.Latency.ValidateFor(c.Geometry); err != nil {
		return err
	}
	// Build throwaway devices to surface parameter errors early.
	if _, err := ftl.New(c.Geometry, c.Latency, c.FTL); err != nil {
		return fmt.Errorf("config: FTL params: %w", err)
	}
	if _, err := legacy.New(c.Geometry, c.Latency, c.Legacy); err != nil {
		return fmt.Errorf("config: legacy params: %w", err)
	}
	if _, err := c.NewFEMU(); err != nil {
		return fmt.Errorf("config: FEMU params: %w", err)
	}
	if _, err := c.NewConfZNS(); err != nil {
		return fmt.Errorf("config: ConfZNS params: %w", err)
	}
	return nil
}

// NewConZone builds the ConZone device from the configuration.
func (c DeviceConfig) NewConZone() (*ftl.FTL, error) {
	return ftl.New(c.Geometry, c.Latency, c.FTL)
}

// NewLegacy builds the legacy baseline device.
func (c DeviceConfig) NewLegacy() (*legacy.Device, error) {
	return legacy.New(c.Geometry, c.Latency, c.Legacy)
}

// NewFEMU builds the FEMU-personality device.
func (c DeviceConfig) NewFEMU() (*femu.Device, error) {
	return femu.New(femu.Stock, c.Geometry, c.Latency, c.FEMU)
}

// NewConfZNS builds the ConfZNS-personality device.
func (c DeviceConfig) NewConfZNS() (*femu.Device, error) {
	return femu.New(femu.ConfZNS, c.Geometry, c.Latency, c.ConfZNS)
}

// Save writes the configuration as indented JSON.
func (c DeviceConfig) Save(path string) error {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads a configuration written by Save and validates it. A key that names
// no field is ignored, so files saved before a parameter was removed still load.
func Load(path string) (DeviceConfig, error) {
	var c DeviceConfig
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("config: parse %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return c, fmt.Errorf("config: %s: %w", path, err)
	}
	return c, nil
}
