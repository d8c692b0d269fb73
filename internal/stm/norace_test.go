//go:build !race

package stm

const raceEnabled = false
