//go:build race

package sim

// raceMallocs is the malloc count the race-enabled runtime may add, once
// per process, to an allocation window of TestWheelSteadyStateAllocs: a
// single 32-byte object that survives the window, made off the test's
// goroutine. It shows only in the second run of a -count=N process, a
// wall-clock pause before the window makes it vanish while Gosched does
// not, and the kernel keeps no state between kernels, so no code of this
// package made it. Builds without the race detector allow none.
const raceMallocs = 1
