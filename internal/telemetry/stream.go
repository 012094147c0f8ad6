package telemetry

import (
	"sync"
	"sync/atomic"
)

// Event is one simulated-clock observation published by an instrumented
// subsystem. TSec is the simulated time of the producing event — wall time
// never appears here. The remaining fields are a flat union across
// subsystems; unused ones stay zero and are elided from JSON.
type Event struct {
	TSec      float64 `json:"t"`
	Kind      string  `json:"kind"`
	Subsystem string  `json:"sub,omitempty"`
	Pipeline  string  `json:"pipeline,omitempty"`
	Class     string  `json:"class,omitempty"`
	Priority  int     `json:"priority,omitempty"`
	Jobs      int     `json:"jobs,omitempty"`
	Resource  string  `json:"res,omitempty"`
	Value     float64 `json:"value,omitempty"`
	Detail    string  `json:"detail,omitempty"`
}

// Stream fans events out to bounded subscribers. Publish never blocks: a
// subscriber whose buffer is full loses the event and its drop counter
// increments. A nil *Stream is a valid disabled sink (Publish is a single
// pointer check), so hot loops instrument unconditionally.
//
// Subscribers are held in a slice, not a map, so fan-out order is the
// deterministic subscription order.
type Stream struct {
	mu        sync.Mutex
	subs      []*Subscriber // guarded by mu
	closed    bool          // guarded by mu
	published atomic.Int64
}

// NewStream returns an empty stream.
func NewStream() *Stream {
	return &Stream{}
}

// Subscriber receives a copy of every published event that fits in its
// buffer. Events the buffer cannot hold are counted in Dropped, never
// delivered late.
type Subscriber struct {
	ch      chan Event
	dropped atomic.Int64
	stream  *Stream

	mu     sync.Mutex
	closed bool // guarded by mu
}

// Subscribe registers a new subscriber with the given buffer capacity
// (minimum 1). On a nil or closed stream the returned subscriber's channel
// is already closed, so range loops over Events() terminate immediately.
func (s *Stream) Subscribe(buf int) *Subscriber {
	if buf < 1 {
		buf = 1
	}
	sub := &Subscriber{ch: make(chan Event, buf), stream: s}
	if s == nil {
		sub.Close()
		return sub
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		sub.mu.Lock()
		sub.closed = true
		sub.mu.Unlock()
		close(sub.ch)
		return sub
	}
	s.subs = append(s.subs, sub)
	return sub
}

// Publish delivers e to every subscriber that has buffer room and counts a
// drop for each one that does not. It never blocks and is a no-op on a nil
// or closed stream.
func (s *Stream) Publish(e Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.published.Add(1)
	for _, sub := range s.subs {
		select {
		case sub.ch <- e:
		default:
			sub.dropped.Add(1)
		}
	}
}

// Close terminates the stream: every subscriber channel is closed after
// draining what was already buffered, and later Publish calls become
// no-ops. Safe to call more than once; a no-op on nil.
func (s *Stream) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, sub := range s.subs {
		sub.mu.Lock()
		if !sub.closed {
			sub.closed = true
			close(sub.ch)
		}
		sub.mu.Unlock()
	}
	s.subs = nil
}

// StreamStats is the aggregate accounting of a stream.
type StreamStats struct {
	Published   int64 `json:"published"`
	Subscribers int   `json:"subscribers"`
	Dropped     int64 `json:"dropped"`
}

// Stats reports totals: events published, live subscribers, and drops
// summed over live subscribers. Zero on a nil stream.
func (s *Stream) Stats() StreamStats {
	if s == nil {
		return StreamStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StreamStats{
		Published:   s.published.Load(),
		Subscribers: len(s.subs),
	}
	for _, sub := range s.subs {
		st.Dropped += sub.dropped.Load()
	}
	return st
}

// Events is the receive side of the subscription. The channel closes when
// the stream closes or the subscriber unsubscribes.
func (sub *Subscriber) Events() <-chan Event {
	return sub.ch
}

// Close unsubscribes: the stream stops delivering to this subscriber and
// the Events channel closes after its buffered events drain. Safe to call
// more than once.
func (sub *Subscriber) Close() {
	st := sub.stream
	if st != nil {
		st.mu.Lock()
		for i, other := range st.subs {
			if other == sub {
				st.subs = append(st.subs[:i], st.subs[i+1:]...)
				break
			}
		}
		st.mu.Unlock()
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if !sub.closed {
		sub.closed = true
		close(sub.ch)
	}
}
