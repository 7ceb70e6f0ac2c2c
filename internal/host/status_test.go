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
		{errors.New("anything else"), host.StatusInvalid},
	}
	for _, c := range cases {
		if got := host.StatusOf(c.err); got != c.want {
			t.Errorf("StatusOf(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	for _, s := range []host.Status{5, 250} {
		if s.String() == "" {
			t.Errorf("unknown status %d must still render", uint8(s))
		}
	}
	// Digests fold a Status in as its number, so the codes never renumber.
	if host.StatusPowerLoss != 6 {
		t.Errorf("StatusPowerLoss = %d, want 6", host.StatusPowerLoss)
	}
}
