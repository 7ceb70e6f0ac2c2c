package trace

// Count returns the records written so far.
func (tw *Writer) Count() int64 { return tw.count }
