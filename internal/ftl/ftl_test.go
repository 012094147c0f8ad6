package ftl

import (
	"math/rand"
	"testing"
)

func newDevice(t *testing.T, m Mapping) *Device {
	t.Helper()
	cfg := DefaultConfig(m)
	cfg.CapBytes = 16 << 20 // 16 MiB slice keeps tests fast
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig(PageLevel)
	bad.Overprovision = 1
	if err := bad.Validate(); err == nil {
		t.Error("overprovision=1 accepted")
	}
	bad = DefaultConfig(PageLevel)
	bad.PageBytes = 0
	if _, err := New(bad); err == nil {
		t.Error("zero page size accepted")
	}
}

// §7.2: the block-level table is PagesPerBlock× smaller — for a 3.84 TB
// device with 4 KiB pages and 4 B entries, 3.84 GB vs 15 MB of mapping DRAM
// at 1 MiB blocks.
func TestMappingTableFootprint(t *testing.T) {
	capBytes := int64(3840e9)
	page := MappingTableBytes(capBytes, 4096, 256, PageLevel, 4)
	block := MappingTableBytes(capBytes, 4096, 256, BlockLevel, 4)
	if page/block < 200 {
		t.Errorf("page table %d only %dx block table %d, want ≈ 256x", page, page/block, block)
	}
	if page < 3_000_000_000 {
		t.Errorf("page-level table %d bytes; expected multi-GB for a 3.84 TB device", page)
	}
}

// Sequential writes induce no garbage collection: WAF stays 1 under both
// mappings — the property HILOS's row-wise spills rely on.
func TestSequentialWAFIsOne(t *testing.T) {
	for _, m := range []Mapping{PageLevel, BlockLevel} {
		d := newDevice(t, m)
		if err := d.SequentialFill(); err != nil {
			t.Fatal(err)
		}
		if waf := d.WAF(); waf != 1 {
			t.Errorf("%s sequential WAF = %v, want 1", m, waf)
		}
	}
}

// Repeated sequential rewrites (append-only logs wrapping around) stay
// cheap under page-level mapping: the GC victims are fully invalid.
func TestSequentialRewriteCheapPageLevel(t *testing.T) {
	d := newDevice(t, PageLevel)
	for pass := 0; pass < 3; pass++ {
		if err := d.SequentialFill(); err != nil {
			t.Fatal(err)
		}
	}
	if waf := d.WAF(); waf > 1.2 {
		t.Errorf("page-level sequential rewrite WAF = %v, want ≈ 1", waf)
	}
}

// Random single-page overwrites on a full device: page-level mapping pays
// moderate GC amplification; block-level mapping pays the full
// read-modify-write of each block (≈ PagesPerBlock×).
func TestRandomOverwriteAmplification(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dp := newDevice(t, PageLevel)
	if err := dp.SequentialFill(); err != nil {
		t.Fatal(err)
	}
	if err := dp.RandomOverwrite(rng, 4000); err != nil {
		t.Fatal(err)
	}
	pageWAF := dp.WAF()

	rng = rand.New(rand.NewSource(1))
	db := newDevice(t, BlockLevel)
	if err := db.SequentialFill(); err != nil {
		t.Fatal(err)
	}
	if err := db.RandomOverwrite(rng, 800); err != nil {
		t.Fatal(err)
	}
	blockWAF := db.WAF()

	if pageWAF <= 1.1 {
		t.Errorf("page-level random WAF = %v; GC should amplify", pageWAF)
	}
	if pageWAF > 12 {
		t.Errorf("page-level random WAF = %v implausibly high", pageWAF)
	}
	if blockWAF < 3*pageWAF {
		t.Errorf("block-level random WAF %v not far above page-level %v", blockWAF, pageWAF)
	}
}

// The paper's conclusion: under HILOS's sequential access, block-level
// mapping is as good as page-level — so a CSD can spend its DRAM on
// bandwidth instead of mapping tables.
func TestBlockMappingViableForSequentialKV(t *testing.T) {
	d := newDevice(t, BlockLevel)
	// Three full sequential passes emulate prefill + wrap-around spills.
	for pass := 0; pass < 3; pass++ {
		if err := d.SequentialFill(); err != nil {
			t.Fatal(err)
		}
	}
	if waf := d.WAF(); waf > 1.2 {
		t.Errorf("block-level sequential WAF = %v, want ≈ 1", waf)
	}
}

func TestWritePageBounds(t *testing.T) {
	d := newDevice(t, PageLevel)
	if err := d.WritePage(-1); err == nil {
		t.Error("negative page accepted")
	}
	if err := d.WritePage(1 << 30); err == nil {
		t.Error("out-of-range page accepted")
	}
}

func TestErasesAccumulate(t *testing.T) {
	d := newDevice(t, PageLevel)
	for pass := 0; pass < 2; pass++ {
		if err := d.SequentialFill(); err != nil {
			t.Fatal(err)
		}
	}
	if d.erases == 0 {
		t.Error("no erases after overwriting the device")
	}
}
