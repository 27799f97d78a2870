package noise

// SetMaxRouted lowers the sharded pipeline's routing threshold
// (maxRouted) for one test and returns the function restoring it.
func SetMaxRouted(n uint64) (restore func()) {
	old := maxRouted
	maxRouted = n
	return func() { maxRouted = old }
}
