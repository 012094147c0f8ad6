// Quickstart: simulate offline decoding of OPT-66B at a 64K context on the
// paper's testbed, comparing the FlexGen SSD baseline against HILOS with 16
// SmartSSDs, and print where the time goes.
//
// The API is a Simulator built with functional options plus a fixed table
// of systems: hilos.New configures the hardware point once, and any System
// identifier resolves to an Engine bound to it.
package main

import (
	"fmt"
	"log"

	hilos "repro"
)

func main() {
	sim, err := hilos.New(hilos.WithDevices(16))
	if err != nil {
		log.Fatal(err)
	}

	m, err := hilos.ModelByName("OPT-66B")
	if err != nil {
		log.Fatal(err)
	}
	req := hilos.Request{Model: m, Batch: 16, Context: 64 * 1024, OutputLen: 64}

	baselineRep, err := sim.Simulate(hilos.SystemFlexSSD, req)
	if err != nil {
		log.Fatal(err)
	}

	// Engines can also be resolved once and reused; Describe explains the
	// configuration behind the identifier.
	eng, err := sim.Engine(hilos.SystemHILOS)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine %q: %s\n\n", eng.Name(), eng.Describe())
	hilosRep := eng.Run(req)

	fmt.Printf("workload: %s, batch %d, context %d, generate %d tokens\n\n",
		m.Name, req.Batch, req.Context, req.OutputLen)
	fmt.Printf("%-24s %12s %14s %12s\n", "system", "tok/s", "KV I/O share", "CPU util")
	for _, r := range []hilos.Report{baselineRep, hilosRep} {
		fmt.Printf("%-24s %12.4f %13.1f%% %11.1f%%\n",
			r.System, r.DecodeTokPerSec(), 100*r.BreakdownShare("LoadKVCache"), 100*r.HostUtilCPU)
	}
	fmt.Printf("\nHILOS speedup over FLEX(SSD): %.2fx\n",
		hilosRep.DecodeTokPerSec()/baselineRep.DecodeTokPerSec())

	// The §4.2 cache scheduler picks the X-cache ratio automatically from
	// the bandwidth balance α = 2·B_PCI/(B_SSD + B_PCI).
	alpha, err := sim.ChooseAlpha(m, req.Batch, req.Context, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduler-selected X-cache ratio α = %.0f%%\n", 100*alpha)
}
