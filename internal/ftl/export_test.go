package ftl

// MaxMin returns the largest and smallest values of a wear series; equal
// values mean perfectly even wear.
func MaxMin(series []float64) (max, min float64) {
	if len(series) == 0 {
		return 0, 0
	}
	max, min = series[0], series[0]
	for _, v := range series[1:] {
		if v > max {
			max = v
		}
		if v < min {
			min = v
		}
	}
	return max, min
}

// CheckInvariants runs the three substrate self-checks — mapping table, L2P
// cache, SLC staging region — that check.Audit runs first as
// audit[substrate]; this package's tests, which cannot import check, call it
// after operation sequences.
func (f *FTL) CheckInvariants() error {
	if err := f.table.CheckInvariants(); err != nil {
		return err
	}
	if err := f.cache.CheckInvariants(); err != nil {
		return err
	}
	return f.staging.CheckInvariants()
}
