package obs

import "github.com/conzone/conzone/internal/stats"

// Per-stage observers the recorder tests read the aggregates through; the
// emulator reads them through Snapshot.

// Enabled reports whether events are being collected.
func (r *Recorder) Enabled() bool { return r != nil }

// StageCount returns the recorded spans of one stage.
func (r *Recorder) StageCount(s Stage) int64 {
	if r == nil || s >= NumStages {
		return 0
	}
	return r.counts[s]
}

// CauseCount returns the recorded spans of one (stage, cause) pair.
func (r *Recorder) CauseCount(s Stage, c Cause) int64 {
	if r == nil || s >= NumStages || c >= NumCauses {
		return 0
	}
	return r.causes[s][c]
}

// StageLatency returns the latency summary of one stage.
func (r *Recorder) StageLatency(s Stage) stats.Summary {
	if r == nil || s >= NumStages {
		return stats.Summary{}
	}
	return r.hist[s].Summarize()
}

// Reset clears all recorded events and aggregates, keeping the ring size.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.seq = 0
	r.counts = [NumStages]int64{}
	r.causes = [NumStages][NumCauses]int64{}
	for i := range r.hist {
		r.hist[i].Reset()
	}
}
