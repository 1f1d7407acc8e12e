//go:build race

package plan

// raceEnabled reports a -race build, where sync.Pool deliberately drops
// a quarter of all Puts and so the planner's pooled scratch is rebuilt
// (and its buffers regrown) every few queries.
const raceEnabled = true
