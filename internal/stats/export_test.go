package stats

import "time"

// Merge combines two summaries into one covering both observation sets.
// Count, Sum, Min and Max merge exactly and Mean is recomputed from the
// merged Sum/Count, so those fields are lossless under any merge order.
// Merging with an empty summary is a strict identity — every field,
// including the percentiles, is preserved. When both sides are non-empty
// the percentile fields take the field-wise maximum: the operation stays
// commutative and associative (fleet merges are order-independent by
// construction), but a true cross-device percentile requires merging the
// underlying Histograms and summarizing once — Merge's percentiles are a
// cheap characteristic bound, not the population quantile.
func (s Summary) Merge(o Summary) Summary {
	if o.Count == 0 {
		return s
	}
	if s.Count == 0 {
		return o
	}
	maxD := func(a, b time.Duration) time.Duration {
		if a > b {
			return a
		}
		return b
	}
	m := Summary{
		Count: s.Count + o.Count,
		Sum:   s.Sum + o.Sum,
		Max:   maxD(s.Max, o.Max),
		Min:   s.Min,
		P50:   maxD(s.P50, o.P50),
		P95:   maxD(s.P95, o.P95),
		P99:   maxD(s.P99, o.P99),
		P999:  maxD(s.P999, o.P999),
	}
	if o.Min < m.Min {
		m.Min = o.Min
	}
	m.Mean = m.Sum / time.Duration(m.Count)
	return m
}
