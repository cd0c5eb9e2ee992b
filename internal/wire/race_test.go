//go:build race

package wire

// raceBuild reports a test binary built with the race detector, whose
// instrumentation changes what allocates.
const raceBuild = true
