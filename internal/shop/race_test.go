//go:build race

package shop_test

const raceEnabled = true
