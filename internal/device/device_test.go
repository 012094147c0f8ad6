package device

import (
	"math"
	"testing"
)

func TestDefaultTestbedValid(t *testing.T) {
	if err := DefaultTestbed().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGPURoofline(t *testing.T) {
	g := A100()
	// Compute-bound op: time set by FLOPs.
	tc := g.ComputeTime(g.EffFLOPS, 0)
	if math.Abs(tc-1) > 1e-9 {
		t.Errorf("compute-bound time = %v, want 1", tc)
	}
	// Memory-bound op: time set by bytes.
	tm := g.ComputeTime(1, g.HBMBW)
	if math.Abs(tm-1) > 1e-9 {
		t.Errorf("memory-bound time = %v, want 1", tm)
	}
	// Roofline is the max of the two.
	if got := g.ComputeTime(g.EffFLOPS, 2*g.HBMBW); math.Abs(got-2) > 1e-9 {
		t.Errorf("roofline time = %v, want 2", got)
	}
}

func TestWriteAmplification(t *testing.T) {
	s := DefaultTestbed().PlainSSD
	if w := s.WriteAmplification(256); w != 16 {
		t.Errorf("WAF(256) = %v, want 16", w)
	}
	if w := s.WriteAmplification(4096); w != 1 {
		t.Errorf("WAF(4096) = %v, want 1", w)
	}
	if w := s.WriteAmplification(0); w != 1 {
		t.Errorf("WAF(0) = %v, want 1", w)
	}
}

func TestTestbedCalibrationShape(t *testing.T) {
	tb := DefaultTestbed()
	// The paper's FLEX(16 PCIe 3.0 SSDs) underperforms FLEX(4 PCIe 4.0)
	// because the chassis uplink is below the dedicated aggregate.
	dedicated := 4 * tb.PlainSSD.ReadBW
	if tb.Topo.StorageUplink.BW >= dedicated {
		t.Errorf("chassis uplink %v not below 4×PM9A3 %v; Fig. 10's 16-SSD baseline shape would invert", tb.Topo.StorageUplink.BW, dedicated)
	}
	// 16 SmartSSD internal paths must exceed both (the NSP advantage).
	internal := 16 * tb.SmartSSD.InternalReadBW
	if internal <= dedicated {
		t.Errorf("16×internal %v not above 4×PM9A3 %v", internal, dedicated)
	}
}

func TestValidateCatchesBadValues(t *testing.T) {
	tb := DefaultTestbed()
	tb.KVReadDerate = 0
	if err := tb.Validate(); err == nil {
		t.Error("zero derate accepted")
	}
	tb = DefaultTestbed()
	tb.BaselineOverlap = 1
	if err := tb.Validate(); err == nil {
		t.Error("overlap=1 accepted")
	}
	tb = DefaultTestbed()
	tb.GPU.EffFLOPS = 0
	if err := tb.Validate(); err == nil {
		t.Error("zero GPU rate accepted")
	}
}

func TestGPUPresets(t *testing.T) {
	if H100().EffFLOPS <= A100().EffFLOPS {
		t.Error("H100 not faster than A100")
	}
	if A6000().MemBytes != 48*GiB {
		t.Error("A6000 memory wrong")
	}
	if A100().PriceUSD != 7000 || H100().PriceUSD != 30000 {
		t.Error("GPU prices do not match §6.6")
	}
}

// §6.6 bill of materials: $15,000 host + $7,000 A100 + 4×$400 SSDs for the
// baseline; the HILOS configuration adds a $10,000 chassis and sixteen
// $2,400 SmartSSDs, replacing the conventional SSDs.
func TestPricesMatchPaper(t *testing.T) {
	tb := DefaultTestbed()
	flex := Hardware{Hosts: 1, GPU: A100(), GPUs: 1, PlainSSDs: 4}.PriceUSD(tb)
	if flex != 15000+7000+4*400 {
		t.Errorf("FLEX price = %v, want 23600", flex)
	}
	hilos := Hardware{Hosts: 1, GPU: A100(), GPUs: 1, SmartSSDs: 16, Accels: true}.PriceUSD(tb)
	if hilos != 15000+7000+10000+16*2400 {
		t.Errorf("HILOS-16 price = %v, want 70400", hilos)
	}
	h100 := Hardware{Hosts: 1, GPU: H100(), GPUs: 1, PlainSSDs: 4}.PriceUSD(tb)
	if h100 != 15000+30000+1600 {
		t.Errorf("H100 FLEX price = %v, want 46600", h100)
	}
}

// The H100 upgrade costs more than the full 16-SmartSSD HILOS add-on buys
// in throughput terms: HILOS must price below the H100 swap plus SSDs when
// compared per §6.6 (sanity: HILOS-4 is cheaper than the H100 baseline).
func TestHILOS4CheaperThanH100Upgrade(t *testing.T) {
	tb := DefaultTestbed()
	h4 := Hardware{Hosts: 1, GPU: A100(), GPUs: 1, SmartSSDs: 4, Accels: true}.PriceUSD(tb)
	h100 := Hardware{Hosts: 1, GPU: H100(), GPUs: 1, PlainSSDs: 4}.PriceUSD(tb)
	if h4 >= h100 {
		t.Errorf("HILOS-4 ($%v) not cheaper than H100 baseline ($%v)", h4, h100)
	}
}

func TestMultiHostPricing(t *testing.T) {
	tb := DefaultTestbed()
	hw := Hardware{Hosts: 2, GPU: A6000(), GPUs: 8}
	want := 2*tb.HostUSD + 8*A6000().PriceUSD
	if got := hw.PriceUSD(tb); got != want {
		t.Errorf("multi-node price = %v, want %v", got, want)
	}
}
