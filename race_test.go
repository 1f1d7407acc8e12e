//go:build race

package pqfastscan_test

// raceEnabled reports a -race build, where sync.Pool deliberately drops
// a quarter of all Puts and so a query's pooled scratch is reallocated
// every few queries.
const raceEnabled = true
