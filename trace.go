package conzone

import (
	"io"

	"github.com/conzone/conzone/internal/trace"
	"github.com/conzone/conzone/internal/workload"
)

// I/O trace support: record device operations to a compact binary format
// and replay them against any device model. See cmd/conzone-trace for the
// command-line front end, which also reads and writes an editable text form.
type (
	// TraceRecord is one timed device operation.
	TraceRecord = trace.Record
	// TraceOp is the operation kind of a record.
	TraceOp = trace.Op
	// TraceWriter encodes records in the binary trace format.
	TraceWriter = trace.Writer
	// TraceReader decodes the binary trace format.
	TraceReader = trace.Reader
	// ReplayResult summarises a trace replay.
	ReplayResult = trace.ReplayResult
)

// Trace operations.
const (
	TraceRead  = trace.OpRead
	TraceWrite = trace.OpWrite
	TraceReset = trace.OpReset
	TraceFlush = trace.OpFlush
)

// NewTraceWriter wraps w with the binary trace encoder.
func NewTraceWriter(w io.Writer) *TraceWriter { return trace.NewWriter(w) }

// NewTraceReader wraps r with the binary trace decoder.
func NewTraceReader(r io.Reader) *TraceReader { return trace.NewReader(r) }

// ReplayTrace drives a device with the records, preserving causality.
func ReplayTrace(dev workload.Device, records []TraceRecord) (ReplayResult, error) {
	return trace.Replay(dev, records)
}
