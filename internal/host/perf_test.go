package host_test

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
)

// TestHeapArbiterMatchesLinearScan is the heap-dispatch determinism pin: it
// replays a randomized mixed batch through the controller and checks that
// the observed dispatch order equals a reference arbiter that re-selects by
// linear minimum scan over (ready time, tag) — the algorithm the heap
// replaced. The reference mirrors the zone write-lock horizons using the
// controller's own completion times, so any divergence in selection order
// (heap tie-breaks, lazy-key staleness bugs) fails the test.
func TestHeapArbiterMatchesLinearScan(t *testing.T) {
	c := newController(t, host.Config{Queues: 2, Depth: 64})
	zcap := c.ZoneCapSectors()
	nz := c.NumZones()
	rng := rand.New(rand.NewSource(42))

	type ref struct {
		tag   host.Tag
		sub   sim.Time
		op    host.Op
		zone  int // write-lock target (-1 for reads and flush-all)
		isAll bool
	}
	var refs []ref
	for i := 0; i < 100; i++ {
		at := sim.Time(rng.Intn(50)) // coarse: force ready-time ties
		q := i % 2
		var req host.Request
		r := ref{sub: at, zone: -1}
		switch k := rng.Intn(10); {
		case k < 4: // read
			req = host.Request{Op: host.OpRead, LBA: int64(rng.Intn(int(zcap))), N: 1}
		case k < 8: // write (may fail in the FTL; order is what matters)
			z := rng.Intn(nz)
			req = host.Request{Op: host.OpWrite, LBA: int64(z) * zcap, Payloads: make([][]byte, 1)}
			r.zone = z
		case k < 9: // reset
			z := rng.Intn(nz)
			req = host.Request{Op: host.OpReset, Zone: z}
			r.zone = z
		default: // flush-all: full write barrier
			req = host.Request{Op: host.OpFlush, Zone: -1}
			r.isAll = true
		}
		r.op = req.Op
		tag, err := c.Submit(at, q, req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		r.tag = tag
		refs = append(refs, r)
	}

	comps := append(c.Poll(0, 0), c.Poll(1, 0)...)
	if len(comps) != len(refs) {
		t.Fatalf("got %d completions, want %d", len(comps), len(refs))
	}
	byTag := make(map[host.Tag]host.Completion, len(comps))
	for _, comp := range comps {
		byTag[comp.Tag] = comp
	}
	// Recover the controller's dispatch order: commands dispatch one at a
	// time in strictly increasing (ready, tag), so (Dispatched, Tag) sorts
	// completions back into it.
	sort.Slice(comps, func(i, j int) bool {
		if comps[i].Dispatched != comps[j].Dispatched {
			return comps[i].Dispatched < comps[j].Dispatched
		}
		return comps[i].Tag < comps[j].Tag
	})

	// Reference arbiter: repeated linear scan for the first minimal
	// (ready, tag), with the zone horizons fed by the controller's own
	// completion times.
	horizon := make([]sim.Time, nz)
	pendingRef := append([]ref(nil), refs...)
	for step := 0; len(pendingRef) > 0; step++ {
		best, bestReady := -1, sim.Time(0)
		for i, r := range pendingRef {
			ready := r.sub
			if r.isAll {
				for _, h := range horizon {
					if h > ready {
						ready = h
					}
				}
			} else if r.zone >= 0 {
				if h := horizon[r.zone]; h > ready {
					ready = h
				}
			}
			if best < 0 || ready < bestReady ||
				(ready == bestReady && r.tag < pendingRef[best].tag) {
				best, bestReady = i, ready
			}
		}
		want := pendingRef[best]
		got := comps[step]
		if got.Tag != want.tag {
			t.Fatalf("dispatch %d: controller chose tag %d, linear scan chooses tag %d", step, got.Tag, want.tag)
		}
		if got.Dispatched != bestReady {
			t.Fatalf("dispatch %d (tag %d): dispatched at %v, linear scan says %v", step, got.Tag, got.Dispatched, bestReady)
		}
		done := byTag[want.tag].Done
		if want.isAll {
			for z := range horizon {
				if done > horizon[z] {
					horizon[z] = done
				}
			}
		} else if want.zone >= 0 && done > horizon[want.zone] {
			horizon[want.zone] = done
		}
		pendingRef = append(pendingRef[:best], pendingRef[best+1:]...)
	}
}

// TestSteadyStateZeroAllocs pins the controller's allocation-free hot path:
// after warmup, a 4 KiB nil-payload write and a 4 KiB read each cost zero
// heap allocations through Submit + PollInto, and a data-carrying read's
// buffers recycle cleanly.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pin")
	}
	if raceEnabled {
		t.Skip("race detector defeats pooling; alloc counts are meaningless")
	}
	c := newController(t, host.Config{Queues: 1, Depth: 8})
	zcap := c.ZoneCapSectors()

	var at sim.Time
	var cq []host.Completion
	nilPay := make([][]byte, 1)
	lba := int64(0)
	step := func(req host.Request) {
		tag, err := c.Submit(at, 0, req)
		if err != nil {
			t.Fatal(err)
		}
		cq = c.PollInto(0, 0, cq[:0])
		if len(cq) != 1 || cq[0].Tag != tag {
			t.Fatalf("expected one completion for tag %d", tag)
		}
		if cq[0].Err != nil {
			t.Fatal(cq[0].Err)
		}
		if cq[0].Data != nil {
			c.Recycle(cq[0].Data)
		}
		if cq[0].Done > at {
			at = cq[0].Done
		}
	}

	// Warmup: populate the request, buffer and container pools.
	for i := 0; i < 8; i++ {
		step(host.Request{Op: host.OpWrite, LBA: lba, Payloads: nilPay})
		lba++
	}
	step(host.Request{Op: host.OpRead, LBA: 0, N: 1})

	writes := testing.AllocsPerRun(100, func() {
		step(host.Request{Op: host.OpWrite, LBA: lba, Payloads: nilPay})
		lba++
	})
	if writes != 0 {
		t.Errorf("steady-state 4 KiB write: %.1f allocs/op, want 0", writes)
	}
	reads := testing.AllocsPerRun(100, func() {
		step(host.Request{Op: host.OpRead, LBA: lba - 1, N: 1})
	})
	if reads != 0 {
		t.Errorf("steady-state 4 KiB read: %.1f allocs/op, want 0", reads)
	}

	// Data-carrying path: write real payloads into the next zone, then pin
	// the read+Recycle cycle (the copy-at-completion buffers must pool).
	lba = zcap
	pay := payloads(lba, 1)
	for i := 0; i < 8; i++ {
		pay[0][0] = byte(lba)
		step(host.Request{Op: host.OpWrite, LBA: lba, Payloads: pay})
		lba++
	}
	if _, err := c.FlushAll(at); err != nil {
		t.Fatal(err)
	}
	dataReads := testing.AllocsPerRun(100, func() {
		step(host.Request{Op: host.OpRead, LBA: zcap, N: 4})
	})
	if dataReads != 0 {
		t.Errorf("steady-state data-carrying read: %.1f allocs/op, want 0", dataReads)
	}
}

// TestReadDataOwnedAcrossMediaReuse verifies the host-boundary copy: a read
// completion's Data must keep its bytes however the media's pooled slabs
// are recycled afterwards, and recycled read buffers must never leak one
// read's bytes into another's result.
func TestReadDataOwnedAcrossMediaReuse(t *testing.T) {
	c := newController(t, host.Config{Queues: 1, Depth: 8})
	zcap := c.ZoneCapSectors()

	var at sim.Time
	write := func(lba int64, b byte) {
		p := make([]byte, 4096)
		for i := range p {
			p[i] = b
		}
		done, err := c.Write(at, lba, [][]byte{p})
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	read := func(lba, n int64) [][]byte {
		data, done, err := c.Read(at, lba, n)
		if err != nil {
			t.Fatal(err)
		}
		at = done
		return data
	}

	write(0, 0xA1)
	if done, err := c.FlushAll(at); err != nil {
		t.Fatal(err)
	} else {
		at = done
	}
	held := read(0, 1)
	if len(held) != 1 || len(held[0]) != 4096 || held[0][0] != 0xA1 {
		t.Fatalf("read returned wrong data: %v", held != nil)
	}

	// Churn the media and the controller pools: more writes, a zone reset
	// (which erases blocks and recycles their payload slabs), more reads.
	write(zcap, 0xB2)
	if done, err := c.ResetZone(at, 0); err != nil {
		t.Fatal(err)
	} else {
		at = done
	}
	write(0, 0xC3)
	if done, err := c.FlushAll(at); err != nil {
		t.Fatal(err)
	} else {
		at = done
	}
	other := read(0, 1)
	if other[0][0] != 0xC3 {
		t.Fatalf("re-read returned %#x, want 0xC3", other[0][0])
	}

	// The held completion data must still carry the original bytes.
	if !bytes.Equal(held[0], bytes.Repeat([]byte{0xA1}, 4096)) {
		t.Fatal("held read data was clobbered by media reuse")
	}

	// After recycling, fresh reads must return the new bytes even though
	// they reuse the returned buffers.
	c.Recycle(held)
	c.Recycle(other)
	again := read(0, 1)
	if again[0][0] != 0xC3 {
		t.Fatalf("read after recycle returned %#x, want 0xC3", again[0][0])
	}

	// A read covering only unwritten sectors carries no payload at all.
	if data := read(2*zcap, 4); data != nil {
		t.Fatalf("unwritten read returned a %d-entry container, want nil", len(data))
	}
}

// instantBackend completes every command 100 virtual ns after dispatch and
// does nothing else, so a benchmark over it times the controller alone.
type instantBackend struct{ zones, zcap int64 }

func (b instantBackend) Read(at sim.Time, _, n int64) ([][]byte, sim.Time, error) {
	return make([][]byte, n), at + 100, nil
}
func (instantBackend) ReadInto(at sim.Time, _, _ int64, _ [][]byte) (sim.Time, error) {
	return at + 100, nil
}
func (instantBackend) Write(at sim.Time, _ int64, _ [][]byte) (sim.Time, error) { return at + 100, nil }
func (instantBackend) Append(at sim.Time, _ int, _ [][]byte) (int64, sim.Time, error) {
	return 0, at + 100, nil
}
func (instantBackend) Flush(at sim.Time, _ int) (sim.Time, error)      { return at, nil }
func (instantBackend) FlushAll(at sim.Time) (sim.Time, error)          { return at, nil }
func (instantBackend) ResetZone(at sim.Time, _ int) (sim.Time, error)  { return at, nil }
func (instantBackend) CloseZone(at sim.Time, _ int) (sim.Time, error)  { return at, nil }
func (instantBackend) FinishZone(at sim.Time, _ int) (sim.Time, error) { return at, nil }
func (b instantBackend) NumZones() int                                 { return int(b.zones) }
func (b instantBackend) ZoneCapSectors() int64                         { return b.zcap }
func (b instantBackend) TotalSectors() int64                           { return b.zones * b.zcap }
func (instantBackend) Recorder() *obs.Recorder                         { return nil }

// BenchmarkInstantBackend is the controller's own cost per command, by the
// shape the command takes through it: a write queued behind a window of 16
// (pooled record, heap, zone lock, completion queue), the same write through
// the synchronous wrapper, and a read on submit's immediate path in its two
// deliveries. host.Request is passed by value at Submit, so its size shows
// here first (DESIGN §11, "What Dst costs a write").
func BenchmarkInstantBackend(b *testing.B) {
	be := instantBackend{zones: 96, zcap: 4096}
	payload := make([][]byte, 1)
	dst := make([]byte, 4096)
	windowed := func(b *testing.B, req func(i int64) host.Request) {
		c, err := host.New(be, host.Config{Queues: 1, Depth: 64})
		if err != nil {
			b.Fatal(err)
		}
		var comps []host.Completion
		var now sim.Time
		inflight := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for inflight >= 16 {
				comps = c.PollInto(0, 1, comps[:0])
				inflight -= len(comps)
				now = max(now, comps[0].Done)
			}
			if _, err := c.Submit(now, 0, req(int64(i)%be.TotalSectors())); err != nil {
				b.Fatal(err)
			}
			inflight++
			now += 700
		}
	}
	b.Run("queued-write", func(b *testing.B) {
		windowed(b, func(lba int64) host.Request { return host.Request{Op: host.OpWrite, LBA: lba, Payloads: payload} })
	})
	b.Run("read", func(b *testing.B) {
		windowed(b, func(lba int64) host.Request { return host.Request{Op: host.OpRead, LBA: lba, N: 1} })
	})
	b.Run("read-dst", func(b *testing.B) {
		windowed(b, func(lba int64) host.Request { return host.Request{Op: host.OpRead, LBA: lba, N: 1, Dst: dst} })
	})
	b.Run("sync-write", func(b *testing.B) {
		c, err := host.New(be, host.Config{})
		if err != nil {
			b.Fatal(err)
		}
		var now sim.Time
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if now, err = c.Write(now, int64(i)%be.TotalSectors(), payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
