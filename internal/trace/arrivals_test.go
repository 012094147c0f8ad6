package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestReadArrivalsCSVTwoColumn(t *testing.T) {
	in := "arrival_sec,class\n0.5,Short\n1.25,Long\n0.75,Medium\n"
	reqs, err := ReadArrivalsCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("got %d requests, want 3", len(reqs))
	}
	// Sorted by arrival; IDs keep file order.
	if reqs[0].Class.Name != "Short" || reqs[1].Class.Name != "Medium" || reqs[2].Class.Name != "Long" {
		t.Errorf("order %s/%s/%s", reqs[0].Class.Name, reqs[1].Class.Name, reqs[2].Class.Name)
	}
	if reqs[1].ID != 2 || reqs[1].ArrivalSec != 0.75 {
		t.Errorf("medium request %+v, want ID 2 at 0.75s", reqs[1])
	}
	if reqs[0].Class.Input != workload.Short.Input {
		t.Errorf("class not resolved to §6.6 shape: %+v", reqs[0].Class)
	}
}

func TestReadArrivalsCSVFourColumnNoHeader(t *testing.T) {
	in := "0,custom,4096,128\n2.5,custom,4096,128\n"
	reqs, err := ReadArrivalsCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("got %d requests, want 2", len(reqs))
	}
	if reqs[0].Class.Input != 4096 || reqs[0].Class.Output != 128 || reqs[0].Class.Name != "custom" {
		t.Errorf("custom shape %+v", reqs[0].Class)
	}
}

// The six-column form carries scheduling columns; legacy records in the
// same file (mixed widths) parse as priority-0 no-deadline requests.
func TestReadArrivalsCSVSixColumn(t *testing.T) {
	in := "arrival_sec,class,input_tokens,output_tokens,priority,deadline_sec\n" +
		"0.5,online,256,100,2,15\n" +
		"1.5,offline,8192,350,0,0\n"
	reqs, err := ReadArrivalsCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("got %d requests, want 2", len(reqs))
	}
	if reqs[0].Priority != 2 || reqs[0].DeadlineSec != 15 {
		t.Errorf("online request scheduling columns %+v", reqs[0])
	}
	if reqs[1].Priority != 0 || reqs[1].DeadlineSec != 0 {
		t.Errorf("offline request scheduling columns %+v", reqs[1])
	}
	if reqs[0].Class.Input != 256 || reqs[1].Class.Output != 350 {
		t.Errorf("shapes lost: %+v / %+v", reqs[0].Class, reqs[1].Class)
	}
}

// Legacy traces (two- and four-column, the pre-scheduling formats) must
// still parse, as priority-0 requests without deadlines.
func TestReadArrivalsCSVLegacyFormats(t *testing.T) {
	for name, in := range map[string]string{
		"two-column":  "0.5,Short\n1.5,Long\n",
		"four-column": "arrival_sec,class,input_tokens,output_tokens\n0.5,c,100,10\n1.5,c,200,20\n",
	} {
		reqs, err := ReadArrivalsCSV(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, r := range reqs {
			if r.Priority != 0 || r.DeadlineSec != 0 {
				t.Errorf("%s: request %d gained scheduling metadata: %+v", name, i, r)
			}
		}
	}
}

// The scheduling columns must round-trip: IDs are assigned in file order
// while requests sort by arrival, so the columns must follow the request,
// not the row position.
func TestArrivalsCSVSchedulingRoundTrip(t *testing.T) {
	orig := []workload.TimedRequest{
		{ID: 0, Class: workload.Long, ArrivalSec: 3, Priority: 0, DeadlineSec: 0},
		{ID: 1, Class: workload.Short, ArrivalSec: 1, Priority: 2, DeadlineSec: 7.5},
		{ID: 2, Class: workload.Medium, ArrivalSec: 2, Priority: 1, DeadlineSec: 30},
	}
	var buf bytes.Buffer
	if err := WriteArrivalsCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArrivalsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("round trip %d → %d requests", len(orig), len(back))
	}
	// Writer emits in the given (arrival-sorted would differ) order; reader
	// re-sorts by arrival and assigns IDs in file order.
	byArrival := map[float64]workload.TimedRequest{}
	for _, r := range orig {
		byArrival[r.ArrivalSec] = r
	}
	for _, r := range back {
		want := byArrival[r.ArrivalSec]
		if r.Priority != want.Priority || r.DeadlineSec != want.DeadlineSec || r.Class != want.Class {
			t.Errorf("request at t=%v changed in round trip: %+v vs %+v", r.ArrivalSec, r, want)
		}
	}
}

func TestReadArrivalsCSVErrors(t *testing.T) {
	for name, in := range map[string]string{
		"unknown class":   "0.5,Gigantic\n",
		"bad arrival":     "0.5,Short\nx,Short\n",
		"bad shape":       "0.5,c,0,10\n",
		"multi-line name": "0.5,\"a\nb\",256,100\n",
		"field count":     "0.5,Short,256\n",
		"five fields":     "0.5,c,256,100,1\n",
		"bad priority":    "0.5,c,256,100,x,0\n",
		"neg priority":    "0.5,c,256,100,-1,0\n",
		"bad deadline":    "0.5,c,256,100,1,x\n",
		"neg deadline":    "0.5,c,256,100,1,-5\n",
		"inf deadline":    "0.5,c,256,100,1,+Inf\n",
		"empty":           "",
		"header only":     "arrival_sec,class\n",
		"negative":        "-1,Short\n",
		"non-numeric row": "arrival_sec,class\noops,Short\n",
	} {
		if _, err := ReadArrivalsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestArrivalsCSVRoundTrip(t *testing.T) {
	g, err := workload.NewGenerator(5, workload.AzureLikeMix())
	if err != nil {
		t.Fatal(err)
	}
	arr, err := workload.PoissonArrivals(5, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := g.TimedTrace(arr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteArrivalsCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArrivalsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip %d → %d requests", len(orig), len(back))
	}
	for i := range orig {
		if back[i].ArrivalSec != orig[i].ArrivalSec || back[i].Class != orig[i].Class {
			t.Fatalf("request %d changed in round trip: %+v vs %+v", i, back[i], orig[i])
		}
	}
	if err := WriteArrivalsCSV(&buf, nil); err == nil {
		t.Error("empty write accepted")
	}
}

// Only a header row (first field arrival_sec) may be skipped: a headerless
// trace whose first record has a corrupt timestamp must error, not silently
// lose a request.
func TestReadArrivalsCSVCorruptFirstRecord(t *testing.T) {
	if _, err := ReadArrivalsCSV(strings.NewReader("1.2.3,Short\n4,Short\n")); err == nil {
		t.Error("corrupt first record silently skipped as header")
	}
	if _, err := ReadArrivalsCSV(strings.NewReader("NaN,Short\n")); err == nil {
		t.Error("NaN arrival accepted")
	}
}

// FuzzReadArrivalsCSV pins the reader's contract on arbitrary input: it
// returns an error or valid requests (finite arrival ≥ 0, shape ≥ 1,
// priority ≥ 0, finite deadline ≥ 0) and never panics; and writing what it
// read with WriteArrivalsCSV and reading that back returns the same
// requests, apart from IDs.
func FuzzReadArrivalsCSV(f *testing.F) {
	f.Add("0.5,Short\n1,Long\n")
	f.Add("arrival_sec,class,input_tokens,output_tokens,priority,deadline_sec\n0,c,256,100,1,5\n")
	f.Fuzz(func(t *testing.T, in string) {
		reqs, err := ReadArrivalsCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, r := range reqs {
			if !(r.ArrivalSec >= 0) || math.IsInf(r.ArrivalSec, 0) || r.Class.Input < 1 || r.Class.Output < 1 ||
				r.Priority < 0 || !(r.DeadlineSec >= 0) || math.IsInf(r.DeadlineSec, 0) {
				t.Fatalf("invalid request %+v read from %q", r, in)
			}
		}
		var buf bytes.Buffer
		if err := WriteArrivalsCSV(&buf, reqs); err != nil {
			t.Fatal(err)
		}
		back, err := ReadArrivalsCSV(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-reading %q: %v", buf.String(), err)
		}
		if len(back) != len(reqs) {
			t.Fatalf("round trip %d → %d requests", len(reqs), len(back))
		}
		for i := range reqs {
			a, b := reqs[i], back[i]
			a.ID, b.ID = 0, 0
			if a != b {
				t.Fatalf("request %d changed in round trip: %+v → %+v (written %q)", i, a, b, buf.String())
			}
		}
	})
}

// WriteArrivalsCSV is the round-trip oracle for ReadArrivalsCSV: it writes
// requests in the six-column format with its header, scheduling columns
// included.
func WriteArrivalsCSV(w io.Writer, reqs []workload.TimedRequest) error {
	if len(reqs) == 0 {
		return fmt.Errorf("trace: no requests")
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"arrival_sec", "class", "input_tokens", "output_tokens", "priority", "deadline_sec"}); err != nil {
		return err
	}
	for _, r := range reqs {
		rec := []string{
			strconv.FormatFloat(r.ArrivalSec, 'g', -1, 64),
			r.Class.Name,
			strconv.Itoa(r.Class.Input),
			strconv.Itoa(r.Class.Output),
			strconv.Itoa(r.Priority),
			strconv.FormatFloat(r.DeadlineSec, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
