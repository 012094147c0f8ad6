// Command hilos-bench regenerates the paper's evaluation: every table and
// figure, printed as aligned text tables with the paper's expected shapes
// as notes. The tables go to stdout, which is the same on every run; the
// wall-clock time of each experiment goes to stderr.
//
// Usage:
//
//	hilos-bench                 # run everything in paper order
//	hilos-bench -only fig10     # run one experiment
//	hilos-bench -list           # list experiment identifiers
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	hilos "repro"
)

func main() {
	only := flag.String("only", "", "run a single experiment by ID (e.g. fig10)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(hilos.ExperimentIDs(), "\n"))
		return
	}

	sim, err := hilos.New()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *only != "" {
		tab, err := sim.ExperimentByID(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Print(tab)
		return
	}

	start := time.Now()
	for _, id := range hilos.ExperimentIDs() {
		t0 := time.Now()
		tab, err := sim.ExperimentByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(tab)
		fmt.Fprintf(os.Stderr, "(%s in %.1fs)\n", id, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "all experiments completed in %.1fs\n", time.Since(start).Seconds())
}
