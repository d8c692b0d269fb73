//go:build !race

package shop_test

const raceEnabled = false
