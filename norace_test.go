//go:build !race

package pqfastscan_test

const raceEnabled = false
