package dist

// SetMaxLineBytes lowers the line size limit for a test and returns the
// function that restores it.
func SetMaxLineBytes(n int) (restore func()) {
	old := maxLineBytes
	maxLineBytes = n
	return func() { maxLineBytes = old }
}

// WithPlanLabels is withPlanLabels, for tests that call a Transport as the
// coordinator does.
var WithPlanLabels = withPlanLabels
