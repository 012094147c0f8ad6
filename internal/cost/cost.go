// Package cost implements the §6.6 cost-effectiveness analysis (Fig. 16a):
// the price of a bill of materials and throughput-per-dollar. Each system's
// bill of materials is a row of the internal/engine table.
package cost

import "repro/internal/device"

// System is one configuration's bill of materials.
type System struct {
	GPU       device.GPUSpec
	PlainSSDs int // conventional PCIe 4.0 SSDs
	SmartSSDs int // NSP devices (implies the PCIe expansion chassis)
	Hosts     int // server count (multi-node systems)
	ExtraGPUs int // GPUs beyond the first (multi-node systems)
}

// PriceUSD returns the system's total hardware price.
func (s System) PriceUSD(tb device.Testbed) float64 {
	// float64(...) rounds each product on its own, so no architecture fuses
	// it into the sum (the figure tables must match bit for bit).
	p := float64(float64(max(s.Hosts, 1)) * tb.HostUSD)
	p += float64(float64(1+s.ExtraGPUs) * s.GPU.PriceUSD)
	p += float64(float64(s.PlainSSDs) * tb.PlainSSD.PriceUSD)
	if s.SmartSSDs > 0 {
		p += tb.ChassisUSD + float64(float64(s.SmartSSDs)*tb.SmartSSD.PriceUSD)
	}
	return p
}

// Efficiency returns tokens per second per dollar.
func Efficiency(tokPerSec, priceUSD float64) float64 {
	if priceUSD <= 0 {
		return 0
	}
	return tokPerSec / priceUSD
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
