// Package fault is the deterministic NAND fault model injected beneath
// internal/nand. It decides, per media operation, whether the operation
// fails: program and erase operations return status FAIL with configurable
// per-media probabilities, reads need extra ECC read-retry rounds (each a
// full tR) and may end uncorrectable, and all rates may be coupled to block
// wear through the array's existing erase counts. Targeted scripts ("fail
// block B on the Nth erase") make individual failures reproducible for
// tests and experiments.
//
// Every decision is a pure function of the injector's seeded xorshift state
// and the call sequence, so a fixed seed yields the same failures on every
// run — the property the differential-fuzz harness and replay tooling
// depend on.
package fault

import (
	"errors"
	"fmt"

	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
)

// ErrReadOnly reports that the device has degraded to read-only operation:
// its spare superblocks are exhausted (or the SLC staging region can no
// longer sustain writes), so write-class commands are rejected while reads
// keep working. It is a typed sentinel: check with errors.Is.
var ErrReadOnly = errors.New("fault: device degraded to read-only (spare blocks exhausted)")

// Op enumerates the scriptable media operations.
type Op int

// Scriptable operations.
const (
	OpProgram Op = iota
	OpErase
	OpRead
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpProgram:
		return "program"
	case OpErase:
		return "erase"
	case OpRead:
		return "read"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Probabilities holds one media type's per-operation failure rates, each in
// [0, 1]. ReadFail is the per-sense-round transient failure rate: a read's
// first sense fails with this probability, and each retry round fails again
// with it, up to Config.ReadRetryRounds rounds before the data is declared
// uncorrectable.
type Probabilities struct {
	ProgramFail float64 `json:"program_fail"`
	EraseFail   float64 `json:"erase_fail"`
	ReadFail    float64 `json:"read_fail"`
}

func (p Probabilities) validate(media string) error {
	for _, v := range [...]struct {
		name string
		p    float64
	}{{"ProgramFail", p.ProgramFail}, {"EraseFail", p.EraseFail}, {"ReadFail", p.ReadFail}} {
		if v.p < 0 || v.p > 1 {
			return fmt.Errorf("fault: %s %s probability %v outside [0,1]", media, v.name, v.p)
		}
	}
	return nil
}

// Script deterministically fails one block's Nth operation of a kind,
// independent of the probabilistic model — the reproducible-failure tool
// tests are built on ("fail block B on the Nth erase"). A scripted read
// fails uncorrectably after the full retry budget.
type Script struct {
	Chip  int `json:"chip"`
	Block int `json:"block"`
	Op    Op  `json:"op"`
	// N selects which occurrence fails: the Nth matching operation on the
	// (chip, block) pair, 1-based. 0 means the 1st.
	N int `json:"n"`
	// Repeat keeps failing every matching operation from the Nth on — a
	// permanently bad block rather than a one-shot upset.
	Repeat bool `json:"repeat"`
}

// Config parameterizes the fault model. The zero value fails nothing.
type Config struct {
	// Seed drives the injector's deterministic pseudo-randomness.
	Seed uint64 `json:"seed"`

	// SLC, TLC and QLC are the per-media failure rates. SLC covers both
	// the staging region and the map region (both run in SLC mode).
	SLC Probabilities `json:"slc"`
	TLC Probabilities `json:"tlc"`
	QLC Probabilities `json:"qlc"`

	// ReadRetryRounds is K: the retry senses attempted before a failing
	// read is declared uncorrectable. 0 means DefaultReadRetryRounds.
	ReadRetryRounds int `json:"read_retry_rounds"`

	// WearRefErases couples failure rates to wear: a block's effective
	// rates are the configured ones scaled by (1 + eraseCount/WearRefErases),
	// capped at 1. 0 disables wear coupling.
	WearRefErases int64 `json:"wear_ref_erases"`

	// Scripts lists targeted deterministic failures, evaluated before the
	// probabilistic model.
	Scripts []Script `json:"scripts,omitempty"`
}

// DefaultReadRetryRounds is the retry budget used when the config leaves
// ReadRetryRounds zero.
const DefaultReadRetryRounds = 3

// Validate rejects out-of-range probabilities and malformed scripts.
func (c Config) Validate() error {
	if err := c.SLC.validate("SLC"); err != nil {
		return err
	}
	if err := c.TLC.validate("TLC"); err != nil {
		return err
	}
	if err := c.QLC.validate("QLC"); err != nil {
		return err
	}
	if c.ReadRetryRounds < 0 {
		return fmt.Errorf("fault: negative ReadRetryRounds %d", c.ReadRetryRounds)
	}
	if c.WearRefErases < 0 {
		return fmt.Errorf("fault: negative WearRefErases %d", c.WearRefErases)
	}
	for i, s := range c.Scripts {
		if s.Chip < 0 || s.Block < 0 {
			return fmt.Errorf("fault: script %d targets negative address %d/%d", i, s.Chip, s.Block)
		}
		if s.Op != OpProgram && s.Op != OpErase && s.Op != OpRead {
			return fmt.Errorf("fault: script %d has unknown op %d", i, int(s.Op))
		}
		if s.N < 0 {
			return fmt.Errorf("fault: script %d has negative occurrence %d", i, s.N)
		}
	}
	return nil
}

// Stats counts the faults the injector produced.
type Stats struct {
	ProgramFails  int64 // program operations that returned status FAIL
	EraseFails    int64 // erase operations that returned status FAIL
	ReadRetries   int64 // extra sense rounds charged across all reads
	RetriedReads  int64 // reads that needed at least one retry round
	Uncorrectable int64 // reads that stayed uncorrectable after the budget
}

// scriptKey addresses occurrence counters per (chip, block, op).
type scriptKey struct {
	chip, block int
	op          Op
}

// Injector implements nand.FaultInjector over a Config.
type Injector struct {
	cfg     Config
	retries int // normalized ReadRetryRounds
	rng     *sim.Rand

	// seen counts matching operations per scripted (chip, block, op) so the
	// Nth occurrence can be picked out; only scripted addresses are tracked.
	seen    map[scriptKey]int
	scripts map[scriptKey][]Script

	stats Stats
}

// Assert the nand contract at compile time.
var _ nand.FaultInjector = (*Injector)(nil)

// New builds an injector for a validated config.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{
		cfg:     cfg,
		retries: cfg.ReadRetryRounds,
		rng:     sim.NewRand(cfg.Seed),
	}
	if inj.retries == 0 {
		inj.retries = DefaultReadRetryRounds
	}
	if len(cfg.Scripts) > 0 {
		inj.seen = make(map[scriptKey]int)
		inj.scripts = make(map[scriptKey][]Script)
		for _, s := range cfg.Scripts {
			k := scriptKey{chip: s.Chip, block: s.Block, op: s.Op}
			inj.scripts[k] = append(inj.scripts[k], s)
		}
	}
	return inj, nil
}

// Stats returns a snapshot of the fault counters.
func (i *Injector) Stats() Stats { return i.stats }

// probs returns the configured rates for a media type.
func (i *Injector) probs(m nand.Media) Probabilities {
	switch m {
	case nand.SLCMode:
		return i.cfg.SLC
	case nand.QLC:
		return i.cfg.QLC
	default:
		return i.cfg.TLC
	}
}

// scale applies wear coupling: rates grow linearly with the block's erase
// count relative to the reference, capped at certainty.
func (i *Injector) scale(p float64, eraseCount int64) float64 {
	if p <= 0 {
		return 0
	}
	if ref := i.cfg.WearRefErases; ref > 0 {
		p *= 1 + float64(eraseCount)/float64(ref)
	}
	if p > 1 {
		return 1
	}
	return p
}

// scripted reports whether this occurrence of (chip, block, op) is a
// scripted failure, advancing the occurrence counter either way.
func (i *Injector) scripted(chip, block int, op Op) bool {
	if i.scripts == nil {
		return false
	}
	k := scriptKey{chip: chip, block: block, op: op}
	ss, ok := i.scripts[k]
	if !ok {
		return false
	}
	i.seen[k]++
	n := i.seen[k]
	for _, s := range ss {
		want := s.N
		if want == 0 {
			want = 1
		}
		if n == want || (s.Repeat && n > want) {
			return true
		}
	}
	return false
}

// CursorState is one scripted (chip, block, op) occurrence counter in a
// Snapshot, exported so snapshots can be serialized alongside NAND images.
type CursorState struct {
	Chip, Block int
	Op          Op
	Count       int
}

// Snapshot captures everything that makes the injector's future decisions
// path-dependent: the RNG stream position, the scripted-occurrence cursors,
// and the fault counters. Restoring a snapshot into an injector built from
// the same Config resumes the exact fault sequence — the crash/remount path
// uses this so a fixed seed replays identical faults whether or not a power
// cut interrupted the run.
type Snapshot struct {
	RNG     uint64
	Cursors []CursorState
	Stats   Stats
}

// Snapshot returns the injector's current stream state.
func (i *Injector) Snapshot() Snapshot {
	s := Snapshot{RNG: i.rng.State(), Stats: i.stats}
	for k, n := range i.seen {
		s.Cursors = append(s.Cursors, CursorState{Chip: k.chip, Block: k.block, Op: k.op, Count: n})
	}
	return s
}

// Restore overwrites the injector's stream state with a snapshot. The
// injector must have been built from the same Config the snapshot was taken
// under; script cursors for addresses the config does not script are
// ignored.
func (i *Injector) Restore(s Snapshot) {
	i.rng.SetState(s.RNG)
	i.stats = s.Stats
	if i.seen != nil {
		for k := range i.seen {
			delete(i.seen, k)
		}
		for _, c := range s.Cursors {
			k := scriptKey{chip: c.Chip, block: c.Block, op: c.Op}
			if _, scripted := i.scripts[k]; scripted {
				i.seen[k] = c.Count
			}
		}
	}
}

// ProgramFails implements nand.FaultInjector.
func (i *Injector) ProgramFails(m nand.Media, chip, block int, eraseCount int64) bool {
	fail := i.scripted(chip, block, OpProgram)
	if !fail {
		p := i.scale(i.probs(m).ProgramFail, eraseCount)
		fail = p > 0 && i.rng.Float64() < p
	}
	if fail {
		i.stats.ProgramFails++
	}
	return fail
}

// EraseFails implements nand.FaultInjector.
func (i *Injector) EraseFails(m nand.Media, chip, block int, eraseCount int64) bool {
	fail := i.scripted(chip, block, OpErase)
	if !fail {
		p := i.scale(i.probs(m).EraseFail, eraseCount)
		fail = p > 0 && i.rng.Float64() < p
	}
	if fail {
		i.stats.EraseFails++
	}
	return fail
}

// ReadFault implements nand.FaultInjector: the first sense fails with the
// (wear-scaled) read rate, then each of up to K retry rounds fails again
// with it; exhausting the budget leaves the data uncorrectable.
func (i *Injector) ReadFault(m nand.Media, chip, block int, eraseCount int64) (int, bool) {
	if i.scripted(chip, block, OpRead) {
		i.stats.RetriedReads++
		i.stats.ReadRetries += int64(i.retries)
		i.stats.Uncorrectable++
		return i.retries, true
	}
	p := i.scale(i.probs(m).ReadFail, eraseCount)
	if p <= 0 || i.rng.Float64() >= p {
		return 0, false
	}
	i.stats.RetriedReads++
	for r := 1; r <= i.retries; r++ {
		if i.rng.Float64() >= p {
			i.stats.ReadRetries += int64(r)
			return r, false
		}
	}
	i.stats.ReadRetries += int64(i.retries)
	i.stats.Uncorrectable++
	return i.retries, true
}
