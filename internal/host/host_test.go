package host_test

import (
	"errors"
	"testing"

	"github.com/conzone/conzone/internal/check"
	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/sim"
)

func newController(t *testing.T, cfg host.Config) *host.Controller {
	t.Helper()
	f, err := config.Small().NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	c, err := host.New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func payloads(lba, n int64) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, 4096)
		for j := range p {
			p[j] = byte((lba + int64(i)) * 7)
		}
		out[i] = p
	}
	return out
}

func TestSyncWrappersMatchDirectFTL(t *testing.T) {
	// The synchronous wrappers are the QD=1 case of the queue path: their
	// completion times must equal driving the FTL directly.
	fDirect, err := config.Small().NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	c := newController(t, host.Config{})

	var nowD, nowC sim.Time
	for i := int64(0); i < 24; i++ {
		dDone, dErr := fDirect.Write(nowD, i*8, payloads(i*8, 8))
		cDone, cErr := c.Write(nowC, i*8, payloads(i*8, 8))
		if (dErr == nil) != (cErr == nil) {
			t.Fatalf("write %d: direct err %v, controller err %v", i, dErr, cErr)
		}
		if dDone != cDone {
			t.Fatalf("write %d: direct done %v, controller done %v", i, dDone, cDone)
		}
		nowD, nowC = dDone, cDone
	}
	dDone, _ := fDirect.FlushAll(nowD)
	cDone, _ := c.FlushAll(nowC)
	if dDone != cDone {
		t.Fatalf("flush: direct done %v, controller done %v", dDone, cDone)
	}
	dData, dDone, _ := fDirect.Read(dDone, 0, 64)
	cData, cDone, _ := c.Read(cDone, 0, 64)
	if dDone != cDone {
		t.Fatalf("read: direct done %v, controller done %v", dDone, cDone)
	}
	for i := range dData {
		if string(dData[i]) != string(cData[i]) {
			t.Fatalf("read sector %d differs", i)
		}
	}
}

func TestZoneWriteSerialization(t *testing.T) {
	c := newController(t, host.Config{Queues: 1, Depth: 16})

	// Write, then flush (which takes real virtual time), then write again —
	// all queued at t=0 into one zone. The zone lock must serialize them:
	// each dispatches at its predecessor's completion.
	t1, _ := c.Submit(0, 0, host.Request{Op: host.OpWrite, LBA: 0, Payloads: payloads(0, 8)})
	t2, _ := c.Submit(0, 0, host.Request{Op: host.OpFlush, Zone: 0})
	t3, _ := c.Submit(0, 0, host.Request{Op: host.OpWrite, LBA: 8, Payloads: payloads(8, 8)})
	// A read of another zone's range queued behind them must NOT wait.
	t4, _ := c.Submit(0, 0, host.Request{Op: host.OpRead, LBA: c.ZoneCapSectors(), N: 1})

	comps := c.Poll(0, 0)
	if len(comps) != 4 {
		t.Fatalf("want 4 completions, got %d", len(comps))
	}
	byTag := map[host.Tag]host.Completion{}
	for _, comp := range comps {
		if comp.Err != nil {
			t.Fatalf("tag %d: %v", comp.Tag, comp.Err)
		}
		byTag[comp.Tag] = comp
	}
	if d := byTag[t2].Dispatched; d < byTag[t1].Done {
		t.Fatalf("flush dispatched at %v before prior write completed at %v", d, byTag[t1].Done)
	}
	if byTag[t2].Done <= byTag[t2].Dispatched {
		t.Fatal("flush of a buffered run should take virtual time")
	}
	if d := byTag[t3].Dispatched; d != byTag[t2].Done {
		t.Fatalf("second write dispatched at %v, want the flush completion %v", d, byTag[t2].Done)
	}
	if byTag[t3].QueueDelay() <= 0 {
		t.Fatal("second write should have queued behind the zone write lock")
	}
	if d := byTag[t4].Dispatched; d != 0 {
		t.Fatalf("read dispatched at %v, want 0: reads never take the zone lock", d)
	}
}

func TestCrossZoneWritesOverlap(t *testing.T) {
	c := newController(t, host.Config{Queues: 1, Depth: 16})
	// Writes to distinct zones queued at the same instant must all
	// dispatch immediately: the locks are per zone.
	zc := c.ZoneCapSectors()
	for z := int64(0); z < 3; z++ {
		if _, err := c.Submit(0, 0, host.Request{Op: host.OpWrite, LBA: z * zc, Payloads: payloads(z*zc, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, comp := range c.Poll(0, 0) {
		if comp.Err != nil {
			t.Fatal(comp.Err)
		}
		if comp.Dispatched != 0 {
			t.Fatalf("zone %d write dispatched at %v, want 0", comp.Zone, comp.Dispatched)
		}
	}
}

func TestZoneAppend(t *testing.T) {
	c := newController(t, host.Config{Queues: 2, Depth: 16})
	// Queue several appends to one zone with no LBAs at all: the device
	// assigns consecutive extents in tag order.
	var tags []host.Tag
	for i := 0; i < 4; i++ {
		tag, err := c.Submit(0, i%2, host.Request{Op: host.OpAppend, Zone: 1, Payloads: payloads(int64(i)*8, 8)})
		if err != nil {
			t.Fatal(err)
		}
		tags = append(tags, tag)
	}
	base := c.ZoneCapSectors()
	for i, tag := range tags {
		comp, ok := c.Wait(tag)
		if !ok || comp.Err != nil {
			t.Fatalf("append %d: ok=%v err=%v", i, ok, comp.Err)
		}
		if want := base + int64(i)*8; comp.LBA != want {
			t.Fatalf("append %d assigned LBA %d, want %d", i, comp.LBA, want)
		}
	}
	// The appended data reads back from the assigned locations.
	data, _, err := c.Read(c.Kick(), base, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i, sector := range data {
		if sector == nil || sector[0] != byte(int64(i)*7) {
			t.Fatalf("sector %d did not read back appended data", i)
		}
	}
}

func TestOutOfOrderCompletions(t *testing.T) {
	c := newController(t, host.Config{Queues: 1, Depth: 16})
	// A slow write-class chain in zone 0 and a fast buffered write in
	// zone 1, queued together: Poll must deliver completions in virtual
	// completion order, not submission order.
	c.Submit(0, 0, host.Request{Op: host.OpWrite, LBA: 0, Payloads: payloads(0, 8)})
	slow, _ := c.Submit(0, 0, host.Request{Op: host.OpFlush, Zone: 0})
	fast, _ := c.Submit(0, 0, host.Request{Op: host.OpWrite, LBA: c.ZoneCapSectors(), Payloads: payloads(c.ZoneCapSectors(), 8)})
	comps := c.Poll(0, 0)
	if len(comps) != 3 {
		t.Fatalf("want 3 completions, got %d", len(comps))
	}
	for i := 1; i < len(comps); i++ {
		if comps[i].Done < comps[i-1].Done {
			t.Fatalf("completions out of Done order: %v then %v", comps[i-1].Done, comps[i].Done)
		}
	}
	order := map[host.Tag]int{}
	for i, comp := range comps {
		order[comp.Tag] = i
	}
	// The later-submitted zone-1 write (instant buffer accept) overtakes
	// the earlier flush (real media time): out-of-order completion.
	if order[fast] >= order[slow] {
		t.Fatalf("tag %d (fast) should complete before tag %d (slow); order %v", fast, slow, order)
	}
}

func TestQueueFull(t *testing.T) {
	c := newController(t, host.Config{Queues: 1, Depth: 2})
	for i := int64(0); i < 2; i++ {
		if _, err := c.Submit(0, 0, host.Request{Op: host.OpRead, LBA: i, N: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Submit(0, 0, host.Request{Op: host.OpRead, LBA: 2, N: 1}); !errors.Is(err, host.ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	// Reaping frees the slot.
	if comps := c.Poll(0, 1); len(comps) != 1 {
		t.Fatalf("want 1 reaped completion, got %d", len(comps))
	}
	if _, err := c.Submit(0, 0, host.Request{Op: host.OpRead, LBA: 2, N: 1}); err != nil {
		t.Fatalf("slot freed by Poll, submit failed: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	c := newController(t, host.Config{Queues: 2, Depth: 4})
	cases := []struct {
		name string
		q    int
		req  host.Request
	}{
		{"bad queue", 7, host.Request{Op: host.OpRead, LBA: 0, N: 1}},
		{"zero-length read", 0, host.Request{Op: host.OpRead, LBA: 0}},
		{"read past end", 0, host.Request{Op: host.OpRead, LBA: c.TotalSectors(), N: 1}},
		{"empty write", 0, host.Request{Op: host.OpWrite, LBA: 0}},
		{"write across zones", 0, host.Request{Op: host.OpWrite, LBA: c.ZoneCapSectors() - 1, Payloads: payloads(0, 2)}},
		{"append bad zone", 0, host.Request{Op: host.OpAppend, Zone: -1, Payloads: payloads(0, 1)}},
		{"reset bad zone", 0, host.Request{Op: host.OpReset, Zone: c.NumZones()}},
		{"unknown op", 0, host.Request{Op: host.Op(99)}},
	}
	for _, tc := range cases {
		if _, err := c.Submit(0, tc.q, tc.req); err == nil {
			t.Errorf("%s: submit accepted", tc.name)
		}
	}
	if !c.Idle() {
		t.Fatal("rejected submissions must not occupy the controller")
	}
}

func TestBackendErrorsArriveInCompletions(t *testing.T) {
	c := newController(t, host.Config{Queues: 1, Depth: 4})
	// A write off the write pointer is well-formed for the queue but the
	// device rejects it at dispatch: the error must ride the completion.
	tag, err := c.Submit(0, 0, host.Request{Op: host.OpWrite, LBA: 4, Payloads: payloads(4, 1)})
	if err != nil {
		t.Fatalf("submit should accept a shape-valid write: %v", err)
	}
	comp, ok := c.Wait(tag)
	if !ok {
		t.Fatal("completion lost")
	}
	if comp.Err == nil {
		t.Fatal("want a write-pointer violation in the completion")
	}
}

func TestDeterministicDispatchAcrossControllers(t *testing.T) {
	// The same submission sequence on two fresh controllers must produce
	// identical completion timelines.
	run := func() []host.Completion {
		c := newController(t, host.Config{Queues: 2, Depth: 8})
		zc := c.ZoneCapSectors()
		c.Submit(0, 0, host.Request{Op: host.OpWrite, LBA: 0, Payloads: payloads(0, 8)})
		c.Submit(0, 1, host.Request{Op: host.OpAppend, Zone: 1, Payloads: payloads(zc, 8)})
		c.Submit(0, 0, host.Request{Op: host.OpFlush, Zone: -1})
		c.Submit(0, 1, host.Request{Op: host.OpRead, LBA: 0, N: 8})
		out := append(c.Poll(0, 0), c.Poll(1, 0)...)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("completion counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Tag != b[i].Tag || a[i].Dispatched != b[i].Dispatched || a[i].Done != b[i].Done || a[i].LBA != b[i].LBA {
			t.Fatalf("completion %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestWaitLeavesOtherCompletionsQueued(t *testing.T) {
	c := newController(t, host.Config{Queues: 1, Depth: 8})
	t1, _ := c.Submit(0, 0, host.Request{Op: host.OpRead, LBA: 0, N: 1})
	t2, _ := c.Submit(0, 0, host.Request{Op: host.OpRead, LBA: 1, N: 1})
	if _, ok := c.Wait(t2); !ok {
		t.Fatal("wait on a queued tag failed")
	}
	if _, ok := c.Wait(t2); ok {
		t.Fatal("double-wait on a reaped tag succeeded")
	}
	comps := c.Poll(0, 0)
	if len(comps) != 1 || comps[0].Tag != t1 {
		t.Fatalf("want tag %d still queued, got %v", t1, comps)
	}
}

func TestControllerAuditsCleanUnderMixedLoad(t *testing.T) {
	c := newController(t, host.Config{Queues: 2, Depth: 8})
	zc := c.ZoneCapSectors()
	at := sim.Time(0)
	for i := int64(0); i < 6; i++ {
		if _, err := c.Submit(at, int(i%2), host.Request{Op: host.OpAppend, Zone: int(i % 3), Payloads: payloads(i*8, 8)}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(at, int(i%2), host.Request{Op: host.OpRead, LBA: (i % 3) * zc, N: 4}); err != nil {
			t.Fatal(err)
		}
		if err := check.AuditHost(c); err != nil {
			t.Fatalf("audit before dispatch round %d: %v", i, err)
		}
		at = c.Kick()
		if err := check.AuditHost(c); err != nil {
			t.Fatalf("audit after dispatch round %d: %v", i, err)
		}
	}
	c.Poll(0, 0)
	c.Poll(1, 0)
	if !c.Idle() {
		t.Fatal("controller should drain idle")
	}
	if err := check.AuditHost(c); err != nil {
		t.Fatal(err)
	}
}
