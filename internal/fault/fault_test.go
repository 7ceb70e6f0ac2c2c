package fault

import (
	"testing"

	"github.com/conzone/conzone/internal/nand"
)

// TestScriptedOccurrences pins the script semantics: exactly the Nth
// matching operation on the (chip, block) pair fails — every occurrence
// from the Nth on when Repeat is set — and other addresses are untouched.
func TestScriptedOccurrences(t *testing.T) {
	inj, err := New(Config{Scripts: []Script{
		{Chip: 0, Block: 5, Op: OpProgram, N: 2},
		{Chip: 1, Block: 5, Op: OpErase, N: 1, Repeat: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// One-shot: only the 2nd program of chip 0 block 5 fails.
	for occ, want := range []bool{false, true, false, false} {
		if got := inj.ProgramFails(nand.TLC, 0, 5, 0); got != want {
			t.Fatalf("program occurrence %d: fail = %v, want %v", occ+1, got, want)
		}
	}
	// Unscripted addresses never fail with zero probabilities.
	if inj.ProgramFails(nand.TLC, 0, 6, 0) || inj.ProgramFails(nand.TLC, 2, 5, 0) {
		t.Fatal("unscripted address failed")
	}
	// Repeat: every erase of chip 1 block 5 fails, permanently.
	for occ := 0; occ < 3; occ++ {
		if !inj.EraseFails(nand.SLCMode, 1, 5, 0) {
			t.Fatalf("repeating erase script missed occurrence %d", occ+1)
		}
	}
	st := inj.Stats()
	if st.ProgramFails != 1 || st.EraseFails != 3 {
		t.Fatalf("stats = %+v, want 1 program fail and 3 erase fails", st)
	}
}

// TestScriptedReadUncorrectable: a scripted read burns the whole retry
// budget and stays uncorrectable.
func TestScriptedReadUncorrectable(t *testing.T) {
	inj, err := New(Config{
		ReadRetryRounds: 5,
		Scripts:         []Script{{Chip: 0, Block: 3, Op: OpRead, N: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds, uncorrectable := inj.ReadFault(nand.TLC, 0, 3, 0)
	if rounds != 5 || !uncorrectable {
		t.Fatalf("scripted read = (%d, %v), want (5, true)", rounds, uncorrectable)
	}
	st := inj.Stats()
	if st.ReadRetries != 5 || st.Uncorrectable != 1 || st.RetriedReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if rounds, uncorrectable = inj.ReadFault(nand.TLC, 0, 3, 0); rounds != 0 || uncorrectable {
		t.Fatal("one-shot read script fired twice")
	}
}

// TestDeterministicAcrossRuns: two injectors with the same config produce
// the same fault sequence — the property fuzz replay depends on.
func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{
		Seed: 42,
		TLC:  Probabilities{ProgramFail: 0.3, EraseFail: 0.2, ReadFail: 0.4},
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if a.ProgramFails(nand.TLC, 0, i%8, int64(i)) != b.ProgramFails(nand.TLC, 0, i%8, int64(i)) {
			t.Fatalf("program decision %d diverged between identical injectors", i)
		}
		ra, ua := a.ReadFault(nand.TLC, 1, i%8, 0)
		rb, ub := b.ReadFault(nand.TLC, 1, i%8, 0)
		if ra != rb || ua != ub {
			t.Fatalf("read decision %d diverged: (%d,%v) vs (%d,%v)", i, ra, ua, rb, ub)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.Stats().ProgramFails == 0 {
		t.Fatal("probabilistic model produced no failures at p=0.3 over 500 draws")
	}
}

// TestWearCoupling: rates scale with erase count relative to the reference
// and cap at certainty; zero rates stay zero no matter the wear.
func TestWearCoupling(t *testing.T) {
	inj, err := New(Config{
		Seed:          7,
		TLC:           Probabilities{ProgramFail: 0.5},
		WearRefErases: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// At eraseCount 10 the rate is 0.5*(1+10/10)=1: guaranteed failure.
	for i := 0; i < 20; i++ {
		if !inj.ProgramFails(nand.TLC, 0, 0, 10) {
			t.Fatal("wear-saturated rate must fail with certainty")
		}
	}
	// Zero rates never scale into existence.
	if inj.EraseFails(nand.TLC, 0, 0, 1<<40) {
		t.Fatal("zero erase rate failed under extreme wear")
	}
}

// TestConfigValidate rejects out-of-range rates and malformed scripts, and
// Enabled distinguishes the zero config from an armed one.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{TLC: Probabilities{ProgramFail: 1.5}},
		{SLC: Probabilities{ReadFail: -0.1}},
		{ReadRetryRounds: -1},
		{WearRefErases: -5},
		{Scripts: []Script{{Chip: -1}}},
		{Scripts: []Script{{Op: Op(99)}}},
		{Scripts: []Script{{N: -2}}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	inj, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if inj.retries != DefaultReadRetryRounds {
		t.Errorf("zero ReadRetryRounds normalized to %d, want %d",
			inj.retries, DefaultReadRetryRounds)
	}
}
