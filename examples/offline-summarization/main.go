// Offline-summarization walkthrough: the paper motivates HILOS with offline
// workloads like book-length summarization and large-scale information
// extraction (§1). This example pushes a trace of mixed-length extraction
// requests through three systems and compares completion time, energy and
// hardware cost per million generated tokens, then scales the winning
// deployment out to several pipelines draining the same backlog.
package main

import (
	"fmt"
	"log"

	hilos "repro"
)

// batchFor groups a request class into the fixed offline batch the systems
// run (the paper's default batch of 16 long-context sequences).
func batchFor(m hilos.Model, class hilos.RequestClass) hilos.Request {
	return hilos.Request{Model: m, Batch: 16, Context: class.Input, OutputLen: class.Output}
}

func main() {
	// One simulator configures the hardware point for every system:
	// baselines ignore the SmartSSD count.
	sim, err := hilos.New(hilos.WithDevices(16))
	if err != nil {
		log.Fatal(err)
	}
	m, err := hilos.ModelByName("OPT-66B")
	if err != nil {
		log.Fatal(err)
	}

	// A deterministic trace of 200 extraction jobs: 60% short tickets, 30%
	// medium documents, 10% book-length inputs (§6.6's Azure-like mix).
	trace, err := hilos.NewWorkloadTrace(7, 200)
	if err != nil {
		log.Fatal(err)
	}
	counts := map[string]int{}
	for _, c := range trace {
		counts[c.Name]++
	}
	fmt.Printf("trace: %d jobs (%d short / %d medium / %d long), model %s\n\n",
		len(trace), counts["Short"], counts["Medium"], counts["Long"], m.Name)

	// Each engine carries its system's own energy model.
	var systems []hilos.Engine
	for _, id := range []hilos.System{hilos.SystemFlexSSD, hilos.SystemFlexDRAM, hilos.SystemHILOS} {
		eng, err := sim.Engine(id)
		if err != nil {
			log.Fatal(err)
		}
		systems = append(systems, eng)
	}

	fmt.Printf("%-24s %14s %14s %16s\n", "system", "completion (h)", "kWh total", "J per out-token")
	for _, eng := range systems {
		var totalSec, totalJ, outTokens float64
		feasible := true
		for _, class := range trace {
			rep := eng.Run(batchFor(m, class))
			if rep.OOM {
				feasible = false
				break
			}
			// Each trace entry is one batch-of-16 job.
			totalSec += rep.TotalSec(class.Output)
			outTokens += float64(rep.Batch * class.Output)
			eb, err := eng.Energy(rep)
			if err != nil {
				log.Fatal(err)
			}
			totalJ += float64(eb.Total() * float64(rep.Batch*class.Output))
		}
		if !feasible {
			fmt.Printf("%-24s %14s\n", string(eng.Name()), "OOM")
			continue
		}
		fmt.Printf("%-24s %14.1f %14.1f %16.1f\n",
			string(eng.Name()), totalSec/3600, totalJ/3.6e6, totalJ/outTokens)
	}

	// The mix above is short-dominated; HILOS's advantage concentrates in
	// the long-context tail (the workloads the paper targets). Show it.
	fmt.Println("\nlong-context jobs only (I:8K/O:350):")
	long := hilos.RequestClasses()[2]
	for _, eng := range systems {
		rep := eng.Run(batchFor(m, long))
		if rep.OOM {
			fmt.Printf("  %-24s OOM\n", string(eng.Name()))
			continue
		}
		eb, err := eng.Energy(rep)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-24s %8.2f h/job  %8.1f J per out-token\n",
			string(eng.Name()), rep.TotalSec(long.Output)/3600, eb.Total())
	}

	// Scale out: the same backlog drained by 1, 2 and 4 HILOS pipelines
	// (e.g. four SmartSSD hosts). Makespan is the maximum pipeline load;
	// token totals are identical by construction.
	fmt.Println("\nscaling the HILOS deployment over the shared backlog (batch 16):")
	fmt.Printf("  %-10s %14s %14s %10s\n", "pipelines", "makespan (h)", "tok/s", "speedup")
	var base float64
	for _, p := range []int{1, 2, 4} {
		deploy, err := hilos.New(hilos.WithDevices(16), hilos.WithPipelines(p))
		if err != nil {
			log.Fatal(err)
		}
		sum, err := deploy.Backlog(m, trace, 16, hilos.SystemHILOS)
		if err != nil {
			log.Fatal(err)
		}
		if p == 1 {
			base = sum.MakespanSec
		}
		fmt.Printf("  %-10d %14.2f %14.1f %9.2fx\n",
			p, sum.MakespanSec/3600, sum.Throughput(), base/sum.MakespanSec)
	}

	fmt.Println("\nHILOS finishes the backlog first; its energy advantage appears in the")
	fmt.Println("long-context regime the paper targets, while short prompts remain")
	fmt.Println("cheapest on the DRAM baseline (the Fig. 16/17 trade-off).")
}
