package host_test

import (
	"errors"
	"fmt"
	"testing"

	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/nand"
)

// TestStatusOf pins the error-to-status translation the completion path
// uses: each sentinel in the device's failure vocabulary maps to its
// NVMe-style status code, wrapped or not.
func TestStatusOf(t *testing.T) {
	cases := []struct {
		err  error
		want host.Status
	}{
		{nil, host.StatusOK},
		{host.ErrQueueFull, host.StatusInvalid},
		{fmt.Errorf("ftl: %w", fault.ErrReadOnly), host.StatusReadOnly},
		{fmt.Errorf("nand: %w", nand.ErrUncorrectable), host.StatusMediaError},
		{fmt.Errorf("nand: %w", nand.ErrProgramFail), host.StatusWriteFault},
		{fmt.Errorf("nand: %w", nand.ErrEraseFail), host.StatusWriteFault},
		{fmt.Errorf("wrapped: %w", host.ErrLostCompletion), host.StatusInternal},
		{errors.New("anything else"), host.StatusInvalid},
	}
	for _, c := range cases {
		if got := host.StatusOf(c.err); got != c.want {
			t.Errorf("StatusOf(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	if host.Status(250).String() == "" {
		t.Error("unknown status must still render")
	}
}

// TestExecSyncLostCompletion exercises the lost-completion recovery: a sync
// command whose completion vanishes must return a synthesized
// StatusInternal completion and keep the queue accounting balanced so later
// commands still run.
func TestExecSyncLostCompletion(t *testing.T) {
	c := newController(t, host.Config{Queues: 1, Depth: 4})
	c.LoseSyncCompletions(1)
	if _, err := c.ResetZone(0, 0); !errors.Is(err, host.ErrLostCompletion) {
		t.Fatalf("lost completion returned %v, want ErrLostCompletion", err)
	}
	if got := c.DebugSnapshot().LostCompletions; got != 1 {
		t.Fatalf("LostCompletions = %d, want 1", got)
	}
	// The slot must have been reclaimed: the next sync command succeeds and
	// the controller drains back to idle.
	if _, err := c.ResetZone(c.Kick(), 0); err != nil {
		t.Fatalf("controller wedged after lost completion: %v", err)
	}
	if !c.Idle() {
		t.Fatal("controller not idle after recovery")
	}
}
