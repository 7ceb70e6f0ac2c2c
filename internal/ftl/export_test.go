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
