package units

// Only TestIsPow2 calls this; NextPow2 is what the emulator uses.

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int64) bool {
	return n > 0 && n&(n-1) == 0
}
