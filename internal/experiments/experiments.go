// Package experiments regenerates every table and figure of the paper's
// evaluation (§3, §6, §7). Each generator returns a Table whose rows mirror
// the series the paper plots, and its Notes state the shapes the paper
// reports; cmd/hilos-bench prints them.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/device"
)

// Table is one regenerated artifact.
type Table struct {
	ID      string // e.g. "fig10"
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string // shape expectations from the paper
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner evaluates experiments on a testbed.
type Runner struct {
	TB device.Testbed
}

// Generator produces one table.
type Generator struct {
	ID   string
	Name string
	Run  func(Runner) Table
}

// Registry lists every experiment in paper order.
func Registry() []Generator {
	return []Generator{
		{"fig2", "Motivation: memory footprint and time breakdown", Runner.Fig2},
		{"fig4", "ANS latency breakdown and host utilization", Runner.Fig4},
		{"table3", "FPGA resource utilization and performance", Runner.Table3},
		{"fig10", "Main throughput comparison", Runner.Fig10},
		{"fig11", "Batch size sensitivity", Runner.Fig11},
		{"fig12a", "Kernel microbenchmark", Runner.Fig12a},
		{"fig12b", "Model architecture sensitivity", Runner.Fig12b},
		{"fig13", "Spill interval and X-cache ratio sensitivity", Runner.Fig13},
		{"fig14", "Output length sensitivity", Runner.Fig14},
		{"fig15", "Ablation study", Runner.Fig15},
		{"fig16a", "Cost effectiveness", Runner.Fig16a},
		{"fig16b", "SSD endurance", Runner.Fig16b},
		{"fig17a", "Energy consumption breakdown", Runner.Fig17a},
		{"fig17b", "Multi-node vLLM comparison", Runner.Fig17b},
		{"fig18c", "Accuracy on long-context retrieval", Runner.Fig18c},
		{"est", "Performance estimator validation (§5.1)", Runner.Estimator},
		{"isp", "ISP projection (§7.1)", Runner.ISP},
		{"ext-csd", "Future CSD designs (§7.2)", Runner.ExtCSD},
		{"ext-cxl", "CXL-based writeback (§7.3)", Runner.ExtCXL},
		{"ext-ftl", "FTL mapping granularity (§7.2)", Runner.ExtFTL},
	}
}

// IDs returns all experiment identifiers, sorted.
func IDs() []string {
	var ids []string
	for _, g := range Registry() {
		ids = append(ids, g.ID)
	}
	sort.Strings(ids)
	return ids
}

// ByID returns the generator with the given ID.
func ByID(id string) (Generator, error) {
	for _, g := range Registry() {
		if g.ID == id {
			return g, nil
		}
	}
	return Generator{}, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
}

// helpers shared by generators

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

func clampShare(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func ratioOrOOM(v, base float64, oom bool) string {
	if oom {
		return "OOM"
	}
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", v/base)
}
