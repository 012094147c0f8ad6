package experiments

import (
	"runtime"

	"repro/internal/tensor"
)

// group is the output of one independent sweep point of a generator: the
// table rows it contributes plus any notes it appended (infeasibility
// errors, measured aggregates).
type group struct {
	rows  [][]string
	notes []string
}

// addPoints evaluates the points via runPoints and appends their rows and
// notes to the table, so no generator can accidentally drop a point's
// notes (error paths and measured aggregates ride along with the rows).
func (t *Table) addPoints(points []func() group) {
	rows, notes := runPoints(points)
	t.Rows = append(t.Rows, rows...)
	t.Notes = append(t.Notes, notes...)
}

// runPoints evaluates every point on the kernel worker pool with up to
// GOMAXPROCS workers and assembles the results strictly in point order, so
// the table is identical to what a sequential loop over the points would
// have produced. Points must be independent of each other; shared
// simulations dedupe in repcache rather than through evaluation order.
func runPoints(points []func() group) ([][]string, []string) {
	out := make([]group, len(points))
	tensor.ParallelFor(len(points), runtime.GOMAXPROCS(0), func(i int) {
		out[i] = points[i]()
	})
	var rows [][]string
	var notes []string
	for _, g := range out {
		rows = append(rows, g.rows...)
		notes = append(notes, g.notes...)
	}
	return rows, notes
}
