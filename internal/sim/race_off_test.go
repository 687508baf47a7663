//go:build !race

package sim

const raceMallocs = 0
