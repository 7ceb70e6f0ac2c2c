package check

import (
	"strings"
	"testing"

	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/sim"
)

// newAuditHost builds a controller with a mix of unreaped completions:
// queued writes and appends to two zones, plus reads, all dispatched but
// not reaped — the state AuditHost inspects.
func newAuditHost(t *testing.T) *host.Controller {
	t.Helper()
	f, err := FuzzConfig().NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	c, err := host.New(f, host.Config{Queues: 2, Depth: 16})
	if err != nil {
		t.Fatal(err)
	}
	payloads := func(lba, n int64) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = payloadFor(lba+int64(i), 1)
		}
		return out
	}
	sub := func(q int, req host.Request) host.Tag {
		t.Helper()
		tag, err := c.Submit(0, q, req)
		if err != nil {
			t.Fatalf("submit %v: %v", req.Op, err)
		}
		return tag
	}
	sub(0, host.Request{Op: host.OpWrite, LBA: 0, Payloads: payloads(0, 8)})
	sub(0, host.Request{Op: host.OpWrite, LBA: 8, Payloads: payloads(8, 8)})
	sub(1, host.Request{Op: host.OpAppend, Zone: 1, Payloads: payloads(0, 4)})
	sub(1, host.Request{Op: host.OpAppend, Zone: 1, Payloads: payloads(4, 4)})
	sub(0, host.Request{Op: host.OpRead, LBA: 0, N: 4})
	c.Kick()
	if err := AuditHost(c); err != nil {
		t.Fatalf("fresh controller should audit clean: %v", err)
	}
	return c
}

// wantHostViolation asserts the state audit fails naming the invariant slug.
// The corruption tests below take a snapshot of a healthy controller and
// corrupt the value: auditHostState is a pure function of it.
func wantHostViolation(t *testing.T, st host.DebugState, zoneCap int64, slug string) {
	t.Helper()
	err := auditHostState(st, zoneCap)
	if err == nil {
		t.Fatalf("corruption not detected, want audit[%s]", slug)
	}
	if !strings.Contains(err.Error(), "audit["+slug+"]") {
		t.Fatalf("want audit[%s], got: %v", slug, err)
	}
}

// completionsOf returns pointers into the snapshot to every unreaped
// completion matching the predicate, so a test can rewrite them in place.
func completionsOf(st host.DebugState, match func(host.Completion) bool) []*host.Completion {
	var out []*host.Completion
	for q := range st.Completions {
		for i := range st.Completions[q] {
			if match(st.Completions[q][i]) {
				out = append(out, &st.Completions[q][i])
			}
		}
	}
	return out
}

func opIs(op host.Op) func(host.Completion) bool {
	return func(c host.Completion) bool { return c.Op == op }
}

func TestAuditHostCleanAfterReap(t *testing.T) {
	c := newAuditHost(t)
	c.PollInto(0, 0, nil)
	c.PollInto(1, 0, nil)
	if err := AuditHost(c); err != nil {
		t.Fatalf("drained controller should audit clean: %v", err)
	}
}

func TestAuditHostDetectsZoneLockOverlap(t *testing.T) {
	c := newAuditHost(t)
	// Rewrite the second zone-0 write's in-flight interval so it overlaps
	// the first: two concurrent write-class commands in one zone.
	st := c.DebugSnapshot()
	zone0 := completionsOf(st, func(c host.Completion) bool { return c.Op == host.OpWrite && c.Zone == 0 })
	if len(zone0) != 2 {
		t.Fatalf("want 2 unreaped zone-0 writes, have %d", len(zone0))
	}
	zone0[1].Dispatched, zone0[1].Done = zone0[0].Dispatched, zone0[0].Done+1
	wantHostViolation(t, st, c.ZoneCapSectors(), "host-zone-lock")
}

func TestAuditHostDetectsStaleZoneLock(t *testing.T) {
	c := newAuditHost(t)
	// A zone's write lock freeing before its own completion means the next
	// write could dispatch mid-flight. Buffered writes complete at their
	// dispatch instant, so only a horizon strictly before that trips.
	st := c.DebugSnapshot()
	st.ZoneFree[0] = -1
	wantHostViolation(t, st, c.ZoneCapSectors(), "host-zone-lock")
}

func TestAuditHostDetectsAppendOutsideZone(t *testing.T) {
	c := newAuditHost(t)
	st := c.DebugSnapshot()
	completionsOf(st, opIs(host.OpAppend))[0].LBA = c.ZoneCapSectors() * 4
	wantHostViolation(t, st, c.ZoneCapSectors(), "host-append")
}

func TestAuditHostDetectsAppendCollision(t *testing.T) {
	c := newAuditHost(t)
	// Assign both zone-1 appends the same LBA: the uniqueness the command
	// exists to guarantee is gone.
	st := c.DebugSnapshot()
	appends := completionsOf(st, opIs(host.OpAppend))
	if len(appends) != 2 {
		t.Fatalf("want 2 unreaped appends, have %d", len(appends))
	}
	appends[1].LBA = appends[0].LBA
	wantHostViolation(t, st, c.ZoneCapSectors(), "host-append")
}

func TestAuditHostDetectsOutstandingSkew(t *testing.T) {
	c := newAuditHost(t)
	st := c.DebugSnapshot()
	st.Outstanding[0]++
	wantHostViolation(t, st, c.ZoneCapSectors(), "host-tags")
}

func TestAuditHostDetectsDuplicateTag(t *testing.T) {
	c := newAuditHost(t)
	// A double completion: the same tag queued twice, the counter in step.
	st := c.DebugSnapshot()
	read := *completionsOf(st, opIs(host.OpRead))[0]
	st.Completions[read.Queue] = append(st.Completions[read.Queue], read)
	st.Outstanding[read.Queue]++
	wantHostViolation(t, st, c.ZoneCapSectors(), "host-tags")
}

// A completion parked in a queue other than the one it names would be reaped
// by the wrong poller. The per-queue counters are moved with it, so only the
// queue identity check can catch it.
func TestAuditHostDetectsCompletionInWrongQueue(t *testing.T) {
	c := newAuditHost(t)
	st := c.DebugSnapshot()
	from, to := 0, 1
	n := len(st.Completions[from])
	moved := st.Completions[from][n-1]
	st.Completions[from] = st.Completions[from][:n-1]
	st.Completions[to] = append(st.Completions[to], moved)
	st.Outstanding[from]--
	st.Outstanding[to]++
	wantHostViolation(t, st, c.ZoneCapSectors(), "host-tags")
}

func TestAuditHostDetectsFlushAllBarrierViolation(t *testing.T) {
	f, err := FuzzConfig().NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	c, err := host.New(f, host.Config{Queues: 1, Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = payloadFor(int64(i), 1)
	}
	if _, err := c.Submit(0, 0, host.Request{Op: host.OpWrite, LBA: 0, Payloads: payloads}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(0, 0, host.Request{Op: host.OpFlush, Zone: -1}); err != nil {
		t.Fatal(err)
	}
	c.Kick()
	// A flush-all is a barrier against every zone; pulling its interval
	// under the preceding write breaks host-zone-lock on the write's zone.
	st := c.DebugSnapshot()
	writes, flushes := completionsOf(st, opIs(host.OpWrite)), completionsOf(st, opIs(host.OpFlush))
	if len(writes) != 1 || len(flushes) != 1 {
		t.Fatal("missing unreaped write or flush completion")
	}
	wr, fl := writes[0], flushes[0]
	if fl.Done <= fl.Dispatched {
		t.Fatal("flush-all should take virtual time (it drains a buffered run)")
	}
	// Stretch the write's in-flight interval over the flush-all's: the
	// barrier and a zone-0 write now fly concurrently.
	wr.Dispatched, wr.Done = fl.Dispatched, fl.Done
	// Keep zoneFree consistent with the moved write so only the overlap
	// trips, not the horizon check.
	for z := range st.ZoneFree {
		st.ZoneFree[z] = sim.Time(1 << 60)
	}
	wantHostViolation(t, st, c.ZoneCapSectors(), "host-zone-lock")
}
