package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1)
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatal("nil registry snapshot not zero")
	}
	var st *Stream
	st.Publish(Event{Kind: "x"})
	st.Close()
	if st.Stats() != (StreamStats{}) {
		t.Fatal("nil stream stats")
	}
	sub := st.Subscribe(4)
	if _, ok := <-sub.Events(); ok {
		t.Fatal("nil-stream subscriber channel must be closed")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c1.Add(3)
	if c2 := r.Counter("a"); c2 != c1 || c2.Value() != 3 {
		t.Fatal("counter not shared by name")
	}
	g := r.Gauge("depth")
	g.Set(2)
	g.Add(-0.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 100, 1000} {
		h.Observe(v)
	}
	snap := h.snapshot()
	// buckets: ≤1, ≤10, ≤100, overflow
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Count != 5 || snap.Sum != 1106.5 {
		t.Fatalf("count/sum = %d/%v", snap.Count, snap.Sum)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted bounds")
		}
	}()
	NewRegistry().Histogram("bad", []float64{2, 1})
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Inc()
	r.Gauge("z").Set(1.25)
	r.Histogram("h", []float64{1}).Observe(0.5)
	// /metrics serves the Snapshot through encoding/json, which sorts map
	// keys.
	b1, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("snapshot JSON not deterministic")
	}
	if !strings.Contains(string(b1), `{"a":1,"b":2}`) {
		t.Fatalf("unexpected snapshot: %s", b1)
	}
}

func TestStreamFanOutAndDrops(t *testing.T) {
	s := NewStream()
	big := s.Subscribe(8)
	tiny := s.Subscribe(1)
	for i := 0; i < 5; i++ {
		s.Publish(Event{TSec: float64(i), Kind: "tick"})
	}
	if got := big.dropped.Load(); got != 0 {
		t.Fatalf("big dropped %d", got)
	}
	// tiny buffered 1 and dropped the other 4.
	if got := tiny.dropped.Load(); got != 4 {
		t.Fatalf("tiny dropped %d, want 4", got)
	}
	st := s.Stats()
	if st.Published != 5 || st.Subscribers != 2 || st.Dropped != 4 {
		t.Fatalf("stats = %+v", st)
	}
	s.Close()
	s.Publish(Event{Kind: "late"}) // no-op after close
	n := 0
	for e := range big.Events() {
		if e.Kind != "tick" {
			t.Fatalf("unexpected event %+v", e)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("big received %d events, want 5", n)
	}
}

func TestSubscriberCloseConcurrentWithPublish(t *testing.T) {
	s := NewStream()
	subs := make([]*Subscriber, 16)
	for i := range subs {
		subs[i] = s.Subscribe(2)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			s.Publish(Event{TSec: float64(i)})
		}
	}()
	go func() {
		defer wg.Done()
		for _, sub := range subs {
			sub.Close()
		}
	}()
	wg.Wait()
	s.Close()
}

func TestHTTPMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("cluster.arrivals").Add(7)
	s := NewStream()
	sub := s.Subscribe(1)
	s.Publish(Event{TSec: 1, Kind: "a"})
	s.Publish(Event{TSec: 2, Kind: "b"}) // dropped: buffer 1
	defer sub.Close()

	srv := httptest.NewServer(Handler(r, s))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Metrics Snapshot    `json:"metrics"`
		Stream  StreamStats `json:"stream"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Metrics.Counters["cluster.arrivals"] != 7 {
		t.Fatalf("metrics = %+v", body.Metrics)
	}
	if body.Stream.Published != 2 || body.Stream.Dropped != 1 {
		t.Fatalf("stream stats = %+v (drop accounting)", body.Stream)
	}
}

func TestHTTPEvents(t *testing.T) {
	s := NewStream()
	srv := httptest.NewServer(Handler(nil, s))
	defer srv.Close()

	type result struct {
		events []Event
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := srv.Client().Get(srv.URL + "/events?max=3")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var got []Event
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var e Event
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				done <- result{err: err}
				return
			}
			got = append(got, e)
		}
		done <- result{events: got, err: sc.Err()}
	}()

	// Publish until the client has connected and consumed its three events.
	// Publish is lossy by design, so keep publishing until the handler is
	// subscribed and served; the client stops at max=3.
	for {
		select {
		case res := <-done:
			if res.err != nil && res.err != io.EOF {
				t.Fatal(res.err)
			}
			if len(res.events) != 3 {
				t.Fatalf("got %d events, want 3: %+v", len(res.events), res.events)
			}
			for _, e := range res.events {
				if e.Kind != "tick" || e.TSec != 42 {
					t.Fatalf("bad event %+v", e)
				}
			}
			return
		default:
			s.Publish(Event{TSec: 42, Kind: "tick"})
		}
	}
}

func TestHTTPEventsEndsOnStreamClose(t *testing.T) {
	s := NewStream()
	srv := httptest.NewServer(Handler(nil, s))
	defer srv.Close()

	done := make(chan int, 1)
	go func() {
		resp, err := srv.Client().Get(srv.URL + "/events")
		if err != nil {
			done <- -1
			return
		}
		defer resp.Body.Close()
		n := 0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			n++
		}
		done <- n
	}()

	// Give the handler a moment to subscribe by publishing until at least
	// one event lands in a subscriber, then close: the response must end.
	for s.Stats().Subscribers == 0 {
		s.Publish(Event{Kind: "warm"})
	}
	s.Publish(Event{TSec: 1, Kind: "tick"})
	s.Close()
	if n := <-done; n < 0 {
		t.Fatal("request failed")
	}
}
