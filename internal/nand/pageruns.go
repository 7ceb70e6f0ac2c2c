package nand

import "github.com/conzone/conzone/internal/units"

// PageRun is the part of one flash page a request touches: the page and the
// payload bytes to transfer from it.
type PageRun struct {
	Chip, Block, Page int
	Bytes             int64
}

// PageRuns groups the sectors of one request by flash page, keeping the
// pages in the order the request first touched them. Device models issue
// their page reads from it in that order: the order decides which read
// reaches a shared chip or channel first, so it must not depend on map
// iteration. The zero value is ready to use and the backing slice is
// reused across requests.
type PageRuns struct {
	runs []PageRun
}

// Reset empties the set for the next request.
func (p *PageRuns) Reset() { p.runs = p.runs[:0] }

// Add accounts one sector at addr to its page.
func (p *PageRuns) Add(addr Addr) {
	for j := len(p.runs) - 1; j >= 0; j-- {
		if r := &p.runs[j]; r.Chip == addr.Chip && r.Block == addr.Block && r.Page == addr.Page {
			r.Bytes += units.Sector
			return
		}
	}
	p.runs = append(p.runs, PageRun{Chip: addr.Chip, Block: addr.Block, Page: addr.Page, Bytes: units.Sector})
}

// Runs returns the pages in first-touch order. The slice is valid until the
// next Reset.
func (p *PageRuns) Runs() []PageRun { return p.runs }
