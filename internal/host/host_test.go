package host_test

import (
	"errors"
	"testing"
	"time"

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

// TestControllerReadIntoMatchesDirectFTL pins the controller's depth-1
// read: ReadInto completes at the instant the bare FTL's ReadInto does and
// fills the same sectors — stamped bytes on media and in the write buffer,
// nil for unwritten ones, a read of only unwritten sectors included — and
// once its buffer pools are warm a read allocates nothing.
func TestControllerReadIntoMatchesDirectFTL(t *testing.T) {
	direct, err := config.Small().NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	c := newController(t, host.Config{})
	zc := direct.ZoneCapSectors()
	var nowD, nowC sim.Time
	for i := int64(0); i < 12; i++ { // 96 sectors of zone 0, the tail still buffered
		if nowD, err = direct.Write(nowD, i*8, payloads(i*8, 8)); err != nil {
			t.Fatal(err)
		}
		if nowC, err = c.Write(nowC, i*8, payloads(i*8, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if nowD != nowC {
		t.Fatalf("writes: direct done %v, controller done %v", nowD, nowC)
	}
	want, got := make([][]byte, 64), make([][]byte, 64)
	for _, r := range []struct{ lba, n int64 }{
		{0, 64},     // on media
		{64, 64},    // media, the write buffer, then unwritten
		{zc, 16},    // only unwritten: the completion carries no data
		{90, 1},     // one buffered sector
		{zc - 1, 1}, // one unwritten sector
	} {
		dDone, dErr := direct.ReadInto(nowD, r.lba, r.n, want[:r.n])
		for i := range got {
			got[i] = []byte("stale")
		}
		cDone, cErr := c.ReadInto(nowC, r.lba, r.n, got[:r.n])
		if dErr != nil || cErr != nil {
			t.Fatalf("read [%d,+%d): direct err %v, controller err %v", r.lba, r.n, dErr, cErr)
		}
		if dDone != cDone {
			t.Fatalf("read [%d,+%d): direct done %v, controller done %v", r.lba, r.n, dDone, cDone)
		}
		for i := range r.n {
			if (want[i] == nil) != (got[i] == nil) || string(want[i]) != string(got[i]) {
				t.Fatalf("read [%d,+%d): sector %d differs (direct nil %v, controller nil %v)",
					r.lba, r.n, i, want[i] == nil, got[i] == nil)
			}
		}
		nowD, nowC = dDone, cDone
	}
	if _, err := c.ReadInto(nowC, 0, 4, got[:3]); err == nil {
		t.Error("ReadInto accepted a 3-entry container for a 4-sector read")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if nowC, err = c.ReadInto(nowC, 8, 16, got[:16]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a warm depth-1 read allocates %.1f times, want 0", allocs)
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

	comps := c.PollInto(0, 0, nil)
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
	for _, comp := range c.PollInto(0, 0, nil) {
		if comp.Err != nil {
			t.Fatal(comp.Err)
		}
		if comp.Dispatched != 0 {
			t.Fatalf("zone %d write dispatched at %v, want 0", comp.Zone, comp.Dispatched)
		}
	}
}

// TestFlushAllBarrier pins the flush-all's semantics as a full write
// barrier across zones and queues: it dispatches no earlier than every
// zone's lock horizon left by the write-class commands before it, every
// later write-class command, to any zone, dispatches no earlier than its
// completion, and reads pass it.
func TestFlushAllBarrier(t *testing.T) {
	c := newController(t, host.Config{Queues: 2, Depth: 64})
	zc := c.ZoneCapSectors()
	submit := func(q int, req host.Request) host.Tag {
		t.Helper()
		tag, err := c.Submit(0, q, req)
		if err != nil {
			t.Fatal(err)
		}
		return tag
	}
	for _, lba := range []int64{0, 8, zc, 2 * zc} {
		submit(0, host.Request{Op: host.OpWrite, LBA: lba, Payloads: payloads(lba, 8)})
	}
	barrier := submit(1, host.Request{Op: host.OpFlush, Zone: -1})
	submit(0, host.Request{Op: host.OpWrite, LBA: zc + 8, Payloads: payloads(zc+8, 8)})
	submit(1, host.Request{Op: host.OpWrite, LBA: 3 * zc, Payloads: payloads(3*zc, 8)})
	submit(0, host.Request{Op: host.OpAppend, Zone: 2, Payloads: payloads(0, 8)})
	submit(1, host.Request{Op: host.OpReset, Zone: 4})
	submit(0, host.Request{Op: host.OpFlush, Zone: 0})
	read := submit(1, host.Request{Op: host.OpRead, LBA: 5 * zc, N: 1})

	comps := append(c.PollInto(0, 0, nil), c.PollInto(1, 0, nil)...)
	if len(comps) != 11 {
		t.Fatalf("want 11 completions, got %d", len(comps))
	}
	horizon := make([]sim.Time, c.NumZones())
	var flush host.Completion
	for _, comp := range comps {
		if comp.Err != nil {
			t.Fatalf("tag %d (%v): %v", comp.Tag, comp.Op, comp.Err)
		}
		switch {
		case comp.Tag == barrier:
			flush = comp
		case comp.Tag < barrier && comp.Done > horizon[comp.Zone]:
			horizon[comp.Zone] = comp.Done
		}
	}
	if flush.Zone != -1 || flush.Done <= flush.Dispatched {
		t.Fatalf("flush-all completion: zone %d, dispatched %v, done %v; want zone -1 and a drain that takes time",
			flush.Zone, flush.Dispatched, flush.Done)
	}
	for z, h := range horizon {
		if flush.Dispatched < h {
			t.Errorf("flush-all dispatched at %v, before zone %d's lock frees at %v", flush.Dispatched, z, h)
		}
	}
	for _, comp := range comps {
		switch {
		case comp.Tag == read && comp.Dispatched != 0:
			t.Errorf("a read behind the flush-all dispatched at %v, want 0: reads pass the barrier", comp.Dispatched)
		case comp.Tag > barrier && comp.Op.WriteClass() && comp.Dispatched < flush.Done:
			t.Errorf("%v of zone %d (tag %d) dispatched at %v, before the flush-all completed at %v",
				comp.Op, comp.Zone, comp.Tag, comp.Dispatched, flush.Done)
		}
	}
	for z, free := range c.DebugSnapshot().ZoneFree {
		if free < flush.Done {
			t.Errorf("zone %d's lock frees at %v, before the flush-all's completion %v", z, free, flush.Done)
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
	comps := c.PollInto(0, 0, nil)
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
	if comps := c.PollInto(0, 1, nil); len(comps) != 1 {
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
		out := append(c.PollInto(0, 0, nil), c.PollInto(1, 0, nil)...)
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
	comps := c.PollInto(0, 0, nil)
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
	c.PollInto(0, 0, nil)
	c.PollInto(1, 0, nil)
	if !c.Idle() {
		t.Fatal("controller should drain idle")
	}
	if err := check.AuditHost(c); err != nil {
		t.Fatal(err)
	}
}

// TestArbiterOrderNeedsNonDecreasingInstants pins the determinism
// contract's precondition. Two reads of one flash page are submitted on one
// queue, one at t and one at t + 1 us. Submitted in instant order, the t
// read reaches the chip first. Submitted the other way round, the t + 1 us
// read is dispatched as it is submitted — nothing is pending, so a read
// goes straight to the device — and the t read queues behind it on the
// chip: it completes later than in instant order, although its (ready
// time, tag) key is the smaller one.
func TestArbiterOrderNeedsNonDecreasingInstants(t *testing.T) {
	const later = time.Microsecond
	readAt := func(reversed bool) host.Completion {
		c := newController(t, host.Config{Queues: 1, Depth: 4})
		at, err := c.Write(0, 0, payloads(0, 8))
		if err != nil {
			t.Fatal(err)
		}
		if at, err = c.FlushAll(at); err != nil {
			t.Fatal(err)
		}
		subs := []struct {
			at  sim.Time
			lba int64
		}{{at, 0}, {at.Add(later), 1}}
		if reversed {
			subs[0], subs[1] = subs[1], subs[0]
		}
		var first host.Tag
		for _, s := range subs {
			tag, err := c.Submit(s.at, 0, host.Request{Op: host.OpRead, LBA: s.lba, N: 1})
			if err != nil {
				t.Fatal(err)
			}
			if s.lba == 0 {
				first = tag
			}
		}
		comp, ok := c.Wait(first)
		if !ok || comp.Err != nil {
			t.Fatalf("read at t: reaped %v, err %v", ok, comp.Err)
		}
		return comp
	}
	inOrder, reversed := readAt(false), readAt(true)
	t.Logf("read at t completes at %v in instant order, %v submitted after the t + 1 us read", inOrder.Done, reversed.Done)
	if inOrder.Submitted != reversed.Submitted || inOrder.Dispatched != reversed.Dispatched {
		t.Fatalf("the t read was submitted at %v/%v and dispatched at %v/%v", inOrder.Submitted, reversed.Submitted, inOrder.Dispatched, reversed.Dispatched)
	}
	if reversed.Done <= inOrder.Done {
		t.Errorf("submitted after a later-instant read, the t read completes at %v, no later than in instant order (%v)", reversed.Done, inOrder.Done)
	}
}
