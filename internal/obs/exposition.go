package obs

import (
	"fmt"
	"io"
	"strings"

	"github.com/conzone/conzone/internal/stats"
)

// Exposition is the module's one writer of the Prometheus text exposition
// format (version 0.0.4). Every emitter declares its families through it:
// Family writes a family's HELP and TYPE lines, and each sample written
// after it belongs to that family until the next Family call, so a
// family's samples always sit under its one header. The first error — a
// failed write, a family declared twice in one exposition, a sample
// outside any family — sticks: later calls write nothing and
// WriteExposition returns it.
type Exposition struct {
	w    io.Writer
	name string // the current family
	typ  string
	seen map[string]bool
	err  error
}

// WriteExposition writes the families every section declares, in order,
// as one exposition, and returns the first error.
func WriteExposition(w io.Writer, sections ...func(*Exposition)) error {
	e := &Exposition{w: w, seen: make(map[string]bool)}
	for _, s := range sections {
		s(e)
	}
	return e.err
}

// Family declares the next family: its name, its type ("counter", "gauge"
// or "summary") and a one-line help text.
func (e *Exposition) Family(name, typ, help string) {
	if e.err != nil {
		return
	}
	if e.seen[name] {
		e.err = fmt.Errorf("obs: metric family %q declared twice in one exposition", name)
		return
	}
	e.seen[name], e.name, e.typ = true, name, typ
	_, e.err = fmt.Fprintf(e.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Int writes an integer sample of the current family. labels are
// name/value pairs; the values are written quoted.
func (e *Exposition) Int(v int64, labels ...string) {
	e.sample("", labels, fmt.Sprintf("%d", v))
}

// Float writes a float sample of the current family.
func (e *Exposition) Float(v float64, labels ...string) {
	e.sample("", labels, fmt.Sprintf("%g", v))
}

// Summary writes a latency distribution as samples of the current summary
// family: the 0.5/0.95/0.99/0.999 quantiles, then _sum and _count, in
// seconds of the virtual clock.
func (e *Exposition) Summary(s stats.Summary, labels ...string) {
	if e.err == nil && e.name != "" && e.typ != "summary" {
		e.err = fmt.Errorf("obs: summary sample in %s family %q", e.typ, e.name)
	}
	for _, q := range []struct {
		q string
		v float64
	}{{"0.5", s.P50.Seconds()}, {"0.95", s.P95.Seconds()}, {"0.99", s.P99.Seconds()}, {"0.999", s.P999.Seconds()}} {
		e.sample("", append(labels[:len(labels):len(labels)], "quantile", q.q), fmt.Sprintf("%g", q.v))
	}
	e.sample("_sum", labels, fmt.Sprintf("%g", s.Sum.Seconds()))
	e.sample("_count", labels, fmt.Sprintf("%d", s.Count))
}

// sample writes one line of the current family: its name plus suffix, the
// labels, and the rendered value.
func (e *Exposition) sample(suffix string, labels []string, value string) {
	if e.err == nil && e.name == "" {
		e.err = fmt.Errorf("obs: sample written before any family")
	}
	if e.err != nil {
		return
	}
	var b strings.Builder
	b.WriteString(e.name + suffix)
	sep := '{'
	for i := 0; i+1 < len(labels); i += 2 {
		fmt.Fprintf(&b, "%c%s=%q", sep, labels[i], labels[i+1])
		sep = ','
	}
	if len(labels) > 0 {
		b.WriteByte('}')
	}
	_, e.err = fmt.Fprintf(e.w, "%s %s\n", b.String(), value)
}
