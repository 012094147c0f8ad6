package sim

import "testing"

// pipelineGraph builds the 5000-task two-resource pipeline graph the
// scheduler benchmarks and TestSchedulerSpeedup share.
func pipelineGraph(timeline bool) *Engine {
	e := NewEngine()
	e.RecordTimeline(timeline)
	r1 := e.Resource("a", 10)
	r2 := e.Resource("b", 5)
	var prev Task
	for l := 0; l < 2500; l++ {
		t1 := e.Task("x", r1, 3, prev)
		prev = e.Task("y", r2, 2, t1)
	}
	return e
}

// benchScheduler builds and schedules one pipelineGraph per op; run selects
// the heap event loop or the O(n²) reference.
func benchScheduler(b *testing.B, run func(e *Engine) Result, timeline bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run(pipelineGraph(timeline))
	}
}

func BenchmarkSchedulerListScheduling(b *testing.B) {
	benchScheduler(b, (*Engine).Run, true)
}

// BenchmarkSchedulerListSchedulingReference measures the O(n²) reference
// scheduler on the same graph.
func BenchmarkSchedulerListSchedulingReference(b *testing.B) {
	benchScheduler(b, (*Engine).RunReference, true)
}

// BenchmarkSchedulerNoTimeline measures the heap scheduler with the
// per-task TaskRecord append opted out.
func BenchmarkSchedulerNoTimeline(b *testing.B) {
	benchScheduler(b, (*Engine).Run, false)
}

// BenchmarkScheduler1M pushes the event-driven scheduler to a 1M-task DAG
// (the per-token granularity of a 1M-token decode timeline), timeline
// recording off. One op builds and schedules the full graph in a pooled
// arena; completing at all is the point — the O(n²) reference would take
// hours here.
func BenchmarkScheduler1M(b *testing.B) {
	const pairs = 1 << 19 // 2 tasks per pair = 1,048,576 tasks
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		e.RecordTimeline(false)
		r1 := e.Resource("a", 10)
		r2 := e.Resource("b", 5)
		var prev Task
		for l := 0; l < pairs; l++ {
			t1 := e.Task("x", r1, 3, prev)
			prev = e.Task("y", r2, 2, t1)
		}
		res := e.Run()
		if res.Makespan <= 0 {
			b.Fatal("empty schedule")
		}
	}
}
