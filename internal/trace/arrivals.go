package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// Arrival-trace CSV format, one request per record:
//
//	arrival_sec,class[,input_tokens,output_tokens[,priority,deadline_sec]]
//
// The two-column form resolves class by its §6.6 name (Short/Medium/Long);
// the four-column form carries an explicit request shape, so traces recorded
// from other systems replay without mapping to the built-in classes; the
// six-column form adds the scheduling columns — an integer priority class
// (higher is more urgent, 0 is the offline default) and a start deadline in
// seconds after arrival (0 = none). Legacy two- and four-column traces parse
// unchanged as priority-0, no-deadline requests. A first record whose
// first field is arrival_sec is a header and is skipped; the six-column
// header is
//
//	arrival_sec,class,input_tokens,output_tokens,priority,deadline_sec
//
// Class names span one line.

// ReadArrivalsCSV parses an arrival-trace CSV into timestamped requests,
// sorted by arrival with IDs in file order.
func ReadArrivalsCSV(r io.Reader) ([]workload.TimedRequest, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated per record: 2, 4 or 6 fields
	cr.TrimLeadingSpace = true

	var classes []workload.Class
	var arrivals []float64
	var priorities []int
	var deadlines []float64
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		line++
		if len(rec) != 2 && len(rec) != 4 && len(rec) != 6 {
			return nil, fmt.Errorf("trace: record %d has %d fields, want 2, 4 or 6", line, len(rec))
		}
		if line == 1 && rec[0] == "arrival_sec" {
			continue // a header row, e.g. the six-column one above
		}
		at, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: bad arrival time %q", line, rec[0])
		}
		var c workload.Class
		if len(rec) == 2 {
			known, ok := workload.ClassByName(rec[1])
			if !ok {
				return nil, fmt.Errorf("trace: record %d: unknown class %q (two-column records must use a §6.6 class name)", line, rec[1])
			}
			c = known
		} else {
			in, err1 := strconv.Atoi(rec[2])
			out, err2 := strconv.Atoi(rec[3])
			if err1 != nil || err2 != nil || in < 1 || out < 1 {
				return nil, fmt.Errorf("trace: record %d: bad request shape %q/%q", line, rec[2], rec[3])
			}
			// The CSV reader folds a quoted \r\n into \n, so a multi-line
			// name would not survive a write and re-read.
			if strings.ContainsAny(rec[1], "\r\n") {
				return nil, fmt.Errorf("trace: record %d: class name %q spans lines", line, rec[1])
			}
			c = workload.Class{Name: rec[1], Input: in, Output: out}
		}
		prio, dl := 0, 0.0
		if len(rec) == 6 {
			prio, err = strconv.Atoi(rec[4])
			if err != nil || prio < 0 {
				return nil, fmt.Errorf("trace: record %d: bad priority %q (want integer ≥ 0)", line, rec[4])
			}
			dl, err = strconv.ParseFloat(rec[5], 64)
			if err != nil || dl < 0 || math.IsInf(dl, 0) || math.IsNaN(dl) {
				return nil, fmt.Errorf("trace: record %d: bad deadline %q (want finite seconds ≥ 0)", line, rec[5])
			}
		}
		classes = append(classes, c)
		arrivals = append(arrivals, at)
		priorities = append(priorities, prio)
		deadlines = append(deadlines, dl)
	}
	reqs, err := workload.Timed(classes, arrivals)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	// Timed sorts by arrival but assigns IDs in file order, so the ID
	// indexes the parallel priority/deadline columns.
	for i := range reqs {
		reqs[i].Priority = priorities[reqs[i].ID]
		reqs[i].DeadlineSec = deadlines[reqs[i].ID]
	}
	return reqs, nil
}
