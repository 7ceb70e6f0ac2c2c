package femu

import (
	"bytes"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/sim"
)

// The assertions ConfZNS shares with FEMU (validation, dimensions, round
// trip, sequentiality, reset) are the personality tables in femu_test.go;
// this file holds what only the bufferless, zone-mapped personality does.

func TestSubUnitWritesChargedEveryTime(t *testing.T) {
	d := newTestDevice(t, ConfZNS)
	// Four 12-sector writes complete two 24-sector units. A buffered
	// device would charge 2 programs; bufferless ConfZNS charges one per
	// write that leaves a sub-unit tail plus the unit programs.
	var at sim.Time
	for i := int64(0); i < 4; i++ {
		dn, err := d.Write(at, i*12, payloadsFor(i*12, 12))
		if err != nil {
			t.Fatal(err)
		}
		at = dn
	}
	if d.Stats().Programs < 4 {
		t.Errorf("Programs = %d, want >= 4 (no write buffer)", d.Stats().Programs)
	}
	// Pending data mid-unit reads back correctly.
	if _, err := d.Write(at, 48, payloadsFor(48, 12)); err != nil {
		t.Fatal(err)
	}
	out, _, err := read(d, at, 48, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 12; i++ {
		if !bytes.Equal(out[i], payloadFor(48+i)) {
			t.Fatalf("pending read mismatch at %d", i)
		}
	}
}

func TestWriteWaitsForMedia(t *testing.T) {
	d := newTestDevice(t, ConfZNS)
	// Without a write buffer the host waits for tPROG: a full-unit write
	// completes no earlier than ~937.5us (+ jitter).
	done, err := d.Write(0, 0, payloadsFor(0, 24))
	if err != nil {
		t.Fatal(err)
	}
	if done < sim.Time(937*time.Microsecond) {
		t.Errorf("bufferless write completed too fast: %v", done)
	}
}

func TestFlushIsNoOp(t *testing.T) {
	d := newTestDevice(t, ConfZNS)
	if _, err := d.Write(0, 0, payloadsFor(0, 5)); err != nil {
		t.Fatal(err)
	}
	dn, err := d.FlushAll(12345)
	if err != nil || dn != 12345 {
		t.Errorf("FlushAll = %v, %v", dn, err)
	}
}

func TestZoneMapCounts(t *testing.T) {
	d := newTestDevice(t, ConfZNS)
	if _, err := d.Write(0, 0, payloadsFor(0, 24)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := read(d, 0, 0, 4); err != nil {
		t.Fatal(err)
	}
	if d.Stats().ZoneMapLookups < 2 {
		t.Errorf("ZoneMapLookups = %d", d.Stats().ZoneMapLookups)
	}
}
