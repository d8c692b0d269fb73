//go:build race

package stm

const raceEnabled = true
