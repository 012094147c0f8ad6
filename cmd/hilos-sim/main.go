// Command hilos-sim simulates a single inference configuration and prints
// the full report: throughput, prefill, per-stage breakdown, utilizations,
// energy and write traffic.
//
// Usage:
//
//	hilos-sim -model OPT-66B -system hilos -devices 16 -batch 16 -ctx 65536
//	hilos-sim -model OPT-175B -system flex-ssd -ctx 131072
//	hilos-sim -systems            # list system identifiers
//	hilos-sim -describe           # list systems with descriptions
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	hilos "repro"
	"repro/internal/trace"
)

func main() {
	modelName := flag.String("model", "OPT-66B", "model from Table 2")
	system := flag.String("system", string(hilos.SystemHILOS), "system to simulate")
	devices := flag.Int("devices", 8, "SmartSSD count for HILOS variants")
	batch := flag.Int("batch", 16, "requested batch size")
	ctx := flag.Int("ctx", 32768, "context length (prompt tokens)")
	outLen := flag.Int("out", 64, "generated tokens")
	alpha := flag.Float64("alpha", -1, "X-cache ratio (-1 = auto, HILOS only)")
	spill := flag.Int("spill", 16, "writeback spill interval c (HILOS only)")
	traceOut := flag.String("trace", "", "write the decode step schedule as Chrome trace JSON to this file")
	listSystems := flag.Bool("systems", false, "list system identifiers and exit")
	describe := flag.Bool("describe", false, "list system identifiers with descriptions and exit")
	flag.Parse()

	if *listSystems {
		for _, s := range hilos.Systems() {
			fmt.Println(s)
		}
		return
	}
	if *describe {
		for _, s := range hilos.Systems() {
			fmt.Printf("%-12s %s\n", s, hilos.DescribeSystem(s))
		}
		return
	}

	sim, err := hilos.New(
		hilos.WithDevices(*devices),
		hilos.WithAlpha(*alpha),
		hilos.WithSpillInterval(*spill),
	)
	if err != nil {
		fatal(err)
	}
	m, err := hilos.ModelByName(*modelName)
	if err != nil {
		fatal(err)
	}
	req := hilos.Request{Model: m, Batch: *batch, Context: *ctx, OutputLen: *outLen}

	eng, err := sim.Engine(hilos.System(*system))
	if err != nil {
		fatal(err)
	}
	rep := eng.Run(req)

	fmt.Printf("system:   %s\n", rep.System)
	fmt.Printf("engine:   %s\n", eng.Describe())
	fmt.Printf("model:    %s   context: %d   requested batch: %d\n", rep.Model, rep.Context, *batch)
	if rep.OOM {
		fmt.Printf("result:   OOM (%s)\n", rep.Reason)
		return
	}
	fmt.Printf("batch:    %d (after capacity fitting)\n", rep.Batch)
	fmt.Printf("prefill:  %.2f s\n", rep.PrefillSec)
	fmt.Printf("decode:   %.3f s/step  →  %.4f tok/s\n", rep.StepSec, rep.DecodeTokPerSec())
	fmt.Printf("total for %d tokens: %.2f s\n", *outLen, rep.TotalSec(*outLen))

	fmt.Println("\nper-step stage busy time:")
	var labels []string
	for l := range rep.Breakdown {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Printf("  %-14s %8.3f s  (%.1f%% of stage time)\n", l, rep.Breakdown[l], 100*rep.BreakdownShare(l))
	}
	fmt.Printf("\nhost utilization: CPU %.1f%%  GPU %.1f%%  DRAM capacity %.1f%%\n",
		100*rep.HostUtilCPU, 100*rep.HostUtilGPU, 100*rep.HostUtilDRAMCap)
	fmt.Printf("storage writes:   %.1f MB/step decode, %.1f GB prefill\n",
		rep.DecodeWriteBytesPerStep/1e6, rep.PrefillWriteBytes/1e9)

	if b, err := eng.Energy(rep); err == nil {
		fmt.Printf("energy/token:     CPU %.1f J  DRAM %.1f J  GPU %.1f J  SSD %.1f J  (total %.1f J)\n",
			b.CPU, b.DRAM, b.GPU, b.SSD, b.Total())
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		label := fmt.Sprintf("%s %s s=%d bs=%d", rep.System, rep.Model, rep.Context, rep.Batch)
		if err := trace.WriteChrome(f, rep.Trace, label); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %d task records to %s (open in chrome://tracing)\n", len(rep.Trace), *traceOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hilos-sim:", err)
	os.Exit(1)
}
