package experiments

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/endurance"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Fig16a regenerates the cost-effectiveness study: tokens/s/$ normalized to
// FLEX(SSD), across GPUs and models.
func (r Runner) Fig16a() Table {
	t := Table{
		ID:      "fig16a",
		Title:   "Cost efficiency (tok/s/$) normalized to FLEX(SSD) on the same GPU",
		Headers: []string{"GPU", "model", "s", "FLEX(SSD)", "FLEX(DRAM)", "HILOS(4)", "HILOS(8)", "HILOS(16)"},
		Notes: []string{
			"paper: HILOS up to 2.02x on 66B; FLEX(DRAM) 1.53x when DRAM suffices; 1.68x on 175B",
			"paper: H100 upgrade gives 1.39x speed but worse cost efficiency than HILOS",
		},
	}
	var points []func() group
	for _, gpu := range []device.GPUSpec{device.A100(), device.H100()} {
		on := r
		on.TB.GPU = gpu
		// eff is a system's tokens/s/$ on this GPU, priced by its table row.
		eff := func(sys engine.System, n int, rep pipeline.Report) float64 {
			return rep.DecodeTokPerSec() / must(engine.New(sys, on.config(n))).PriceUSD()
		}
		for _, m := range []model.Config{model.OPT66B, model.OPT175B} {
			for _, s := range []int{16384, 32768} {
				points = append(points, func() group {
					req := request(m, 16, s)
					base := eff(engine.SysFlexSSD, 0, on.run(engine.SysFlexSSD, 0, req))
					row := []string{gpu.Name, m.Name, fmt.Sprintf("%dK", s/1024), "1.00x"}
					dram := on.run(engine.SysFlexDRAM, 0, req)
					row = append(row, ratioOrOOM(eff(engine.SysFlexDRAM, 0, dram), base, dram.OOM))
					for _, n := range []int{4, 8, 16} {
						h := on.run(engine.SysHILOS, n, req)
						row = append(row, ratioOrOOM(eff(engine.SysHILOS, n, h), base, h.OOM))
					}
					return group{rows: [][]string{row}}
				})
			}
		}
	}
	t.addPoints(points)
	return t
}

// Fig16b regenerates the endurance study: total serviceable requests for 16
// devices across request classes and model sizes.
func (r Runner) Fig16b() Table {
	t := Table{
		ID:      "fig16b",
		Title:   "Total serviceable requests (millions), 16 devices, 7.008 PBW each",
		Headers: []string{"class", "model", "FLEX(16 SSDs)", "HILOS c=16", "HILOS c=32", "gain", "c16→c32"},
		Notes: []string{
			"paper: HILOS improves endurance 1.34-1.47x; c 16→32 adds 1.02-1.05x",
			"paper: >4.08M long requests on the 175B model",
		},
	}
	flex := endurance.FlexWrites()
	h16 := endurance.HILOSWrites(0.5, 16)
	h32 := endurance.HILOSWrites(0.5, 32)
	var points []func() group
	for _, class := range workload.Classes() {
		for _, m := range []model.Config{model.OPT30B, model.OPT66B, model.OPT175B} {
			points = append(points, func() group {
				nf, err := endurance.ServiceableRequests(m, class, flex, 16, r.TB.SmartSSD.SSD.PBW)
				if err != nil {
					return group{notes: []string{"error: " + err.Error()}}
				}
				n16, _ := endurance.ServiceableRequests(m, class, h16, 16, r.TB.SmartSSD.SSD.PBW)
				n32, _ := endurance.ServiceableRequests(m, class, h32, 16, r.TB.SmartSSD.SSD.PBW)
				return group{rows: [][]string{{
					class.Name, m.Name,
					f2(nf / 1e6), f2(n16 / 1e6), f2(n32 / 1e6),
					f2(n16 / nf), f2(n32 / n16),
				}}}
			})
		}
	}
	t.addPoints(points)
	return t
}

// Fig17a regenerates the energy-consumption breakdown per generated token.
func (r Runner) Fig17a() Table {
	t := Table{
		ID:      "fig17a",
		Title:   "Energy per generated token (J), by component",
		Headers: []string{"model", "system", "CPU", "DRAM", "GPU", "SSD", "total", "vs FLEX(SSD)"},
		Notes: []string{
			"paper: FLEX(SSD) worst; HILOS cuts energy up to 85% despite higher SSD power",
		},
	}
	var points []func() group
	for _, m := range []model.Config{model.OPT30B, model.OPT66B, model.OPT175B} {
		points = append(points, func() group {
			req := request(m, 16, 32768)
			var baseTotal float64
			systems := []struct {
				name    string
				sys     engine.System
				devices int
			}{
				{"FLEX(SSD)", engine.SysFlexSSD, 0},
				{"FLEX(DRAM)", engine.SysFlexDRAM, 0},
				{"HILOS(4 SSDs)", engine.SysHILOS, 4},
				{"HILOS(8 SSDs)", engine.SysHILOS, 8},
				{"HILOS(16 SSDs)", engine.SysHILOS, 16},
			}
			var g group
			for i, s := range systems {
				b, err := must(engine.New(s.sys, r.config(s.devices))).Energy(r.run(s.sys, s.devices, req))
				if err != nil {
					g.rows = append(g.rows, []string{m.Name, s.name, "-", "-", "-", "-", "OOM", "-"})
					continue
				}
				if i == 0 {
					baseTotal = b.Total()
				}
				g.rows = append(g.rows, []string{
					m.Name, s.name,
					f2(b.CPU), f2(b.DRAM), f2(b.GPU), f2(b.SSD), f2(b.Total()),
					pct(b.Total() / baseTotal),
				})
			}
			return g
		})
	}
	t.addPoints(points)
	return t
}

// Fig17b regenerates the multi-node vLLM comparison on OPT-175B.
func (r Runner) Fig17b() Table {
	t := Table{
		ID:      "fig17b",
		Title:   "OPT-175B total throughput (tok/s) vs multi-node vLLM",
		Headers: []string{"s", "FLEX(SSD)", "FLEX(DRAM)", "vLLM(8xA6000)", "HILOS(16)", "HILOS/vLLM"},
		Notes: []string{
			"paper: HILOS 1.64-1.81x over the 2-node 8-GPU vLLM deployment",
		},
	}
	var points []func() group
	for _, s := range []int{16384, 32768} {
		points = append(points, func() group {
			req := request(model.OPT175B, 16, s)
			fs := r.run(engine.SysFlexSSD, 0, req)
			fd := r.run(engine.SysFlexDRAM, 0, req)
			vl := r.run(engine.SysVLLM, 0, req)
			h := r.run(engine.SysHILOS, 16, req)
			fdCell := "OOM"
			if !fd.OOM {
				fdCell = f3(fd.DecodeTokPerSec())
			}
			ratio := "-"
			if vl.DecodeTokPerSec() > 0 {
				ratio = f2(h.DecodeTokPerSec() / vl.DecodeTokPerSec())
			}
			return group{rows: [][]string{{
				fmt.Sprintf("%dK", s/1024),
				f3(fs.DecodeTokPerSec()), fdCell,
				f3(vl.DecodeTokPerSec()), f3(h.DecodeTokPerSec()), ratio,
			}}}
		})
	}
	t.addPoints(points)
	return t
}
