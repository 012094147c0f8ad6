package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/ftl"
)

// ExtFTL regenerates the §7.2 FTL analysis: mapping-table DRAM footprint at
// both granularities for a 3.84 TB device, and measured write amplification
// of each mapping under HILOS's sequential KV pattern versus random
// small-write workloads. The two mappings' devices are independent, so each
// mapping is one sweep point.
func (r Runner) ExtFTL() Table {
	t := Table{
		ID:    "ext-ftl",
		Title: "FTL mapping granularity (§7.2): table DRAM and measured WAF",
		Headers: []string{"mapping", "table DRAM (3.84TB dev)", "WAF sequential KV",
			"WAF random 4KiB"},
		Notes: []string{
			"paper: block-level mappings free DRAM for bandwidth; viable because HILOS",
			"       keeps KV reads and writes sequential (write-back mechanism, §4.3)",
		},
	}
	const devCap = int64(3840e9)
	var points []func() group
	for _, m := range []ftl.Mapping{ftl.PageLevel, ftl.BlockLevel} {
		points = append(points, func() group {
			var g group
			cfg := ftl.DefaultConfig(m)
			cfg.CapBytes = 32 << 20 // small slice; WAF is capacity-invariant

			seq, err := ftl.New(cfg)
			if err != nil {
				g.notes = append(g.notes, "error: "+err.Error())
				return g
			}
			// Prefill + two wrap-around spill passes: the HILOS pattern.
			for pass := 0; pass < 3; pass++ {
				if err := seq.SequentialFill(); err != nil {
					g.notes = append(g.notes, "error: "+err.Error())
					break
				}
			}

			rnd, err := ftl.New(cfg)
			if err != nil {
				g.notes = append(g.notes, "error: "+err.Error())
				return g
			}
			if err := rnd.SequentialFill(); err == nil {
				_ = rnd.RandomOverwrite(rand.New(rand.NewSource(1)), 2000)
			}

			table := ftl.MappingTableBytes(devCap, cfg.PageBytes, cfg.PagesPerBlock, m, cfg.MapEntryBytes)
			g.rows = append(g.rows, []string{
				m.String(),
				fmt.Sprintf("%.0f MB", float64(table)/1e6),
				f2(seq.WAF()),
				f2(rnd.WAF()),
			})
			return g
		})
	}
	t.addPoints(points)
	return t
}
