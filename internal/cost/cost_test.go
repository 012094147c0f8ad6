package cost

import (
	"testing"

	"repro/internal/device"
)

// §6.6 bill of materials: $15,000 host + $7,000 A100 + 4×$400 SSDs for the
// baseline; the HILOS configuration adds a $10,000 chassis and sixteen
// $2,400 SmartSSDs, replacing the conventional SSDs.
func TestPricesMatchPaper(t *testing.T) {
	tb := device.DefaultTestbed()
	flex := System{GPU: device.A100(), PlainSSDs: 4, Hosts: 1}.PriceUSD(tb)
	if flex != 15000+7000+4*400 {
		t.Errorf("FLEX price = %v, want 23600", flex)
	}
	hilos := System{GPU: device.A100(), SmartSSDs: 16, Hosts: 1}.PriceUSD(tb)
	if hilos != 15000+7000+10000+16*2400 {
		t.Errorf("HILOS-16 price = %v, want 70400", hilos)
	}
	h100 := System{GPU: device.H100(), PlainSSDs: 4, Hosts: 1}.PriceUSD(tb)
	if h100 != 15000+30000+1600 {
		t.Errorf("H100 FLEX price = %v, want 46600", h100)
	}
}

func TestEfficiency(t *testing.T) {
	if e := Efficiency(10, 20000); e != 0.0005 {
		t.Errorf("efficiency = %v", e)
	}
	if e := Efficiency(10, 0); e != 0 {
		t.Errorf("zero-price efficiency = %v, want 0", e)
	}
}

// The H100 upgrade costs more than the full 16-SmartSSD HILOS add-on buys
// in throughput terms: HILOS must price below the H100 swap plus SSDs when
// compared per §6.6 (sanity: HILOS-4 is cheaper than the H100 baseline).
func TestHILOS4CheaperThanH100Upgrade(t *testing.T) {
	tb := device.DefaultTestbed()
	h4 := System{GPU: device.A100(), SmartSSDs: 4, Hosts: 1}.PriceUSD(tb)
	h100 := System{GPU: device.H100(), PlainSSDs: 4, Hosts: 1}.PriceUSD(tb)
	if h4 >= h100 {
		t.Errorf("HILOS-4 ($%v) not cheaper than H100 baseline ($%v)", h4, h100)
	}
}

func TestMultiHostPricing(t *testing.T) {
	tb := device.DefaultTestbed()
	s := System{GPU: device.A6000(), Hosts: 2, ExtraGPUs: 7}
	want := 2*tb.HostUSD + 8*device.A6000().PriceUSD
	if got := s.PriceUSD(tb); got != want {
		t.Errorf("multi-node price = %v, want %v", got, want)
	}
}
