// Package cost implements the §6.6 cost-effectiveness analysis (Fig. 16a):
// hardware bills of materials for each system and throughput-per-dollar.
package cost

import (
	"fmt"

	"repro/internal/device"
)

// System identifies a hardware configuration for pricing.
type System struct {
	Name      string
	GPU       device.GPUSpec
	PlainSSDs int // conventional PCIe 4.0 SSDs
	SmartSSDs int // NSP devices (implies the PCIe expansion chassis)
	Hosts     int // server count (multi-node systems)
	ExtraGPUs int // GPUs beyond the first (multi-node systems)
}

// FlexSystem prices the baseline server: host + one GPU + four PM9A3.
func FlexSystem(gpu device.GPUSpec) System {
	return System{Name: "FLEX", GPU: gpu, PlainSSDs: 4, Hosts: 1}
}

// HILOSSystem prices the NSP configuration: host + GPU + chassis + N
// SmartSSDs (the chassis replaces the conventional SSDs, §6.6).
func HILOSSystem(gpu device.GPUSpec, devices int) System {
	return System{Name: fmt.Sprintf("HILOS-%d", devices), GPU: gpu, SmartSSDs: devices, Hosts: 1}
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

// Relative returns a/b, guarding against division by zero.
func Relative(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
