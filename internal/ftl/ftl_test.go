package ftl

import (
	"math"
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

// TestNewRejectsOversizedDevice: the page tables are int32, so a device
// whose physical page count does not fit one is an error, not a wrap, and
// so is a block too large for the GC bias.
func TestNewRejectsOversizedDevice(t *testing.T) {
	cfg := DefaultConfig(PageLevel)
	cfg.CapBytes = cfg.PageBytes << 31 // 2^31 logical pages
	if _, err := New(cfg); err == nil {
		t.Error("2^31 logical pages accepted")
	}
	cfg.CapBytes = cfg.PageBytes * (math.MaxInt32 - 10) // fits, until overprovisioned
	if _, err := New(cfg); err == nil {
		t.Error("an overprovisioned page count beyond int32 accepted")
	}
	cfg.Overprovision = 0 // fits, until rounded up to whole blocks
	if _, err := New(cfg); err == nil {
		t.Error("a page count rounded up past int32 accepted")
	}
	cfg = DefaultConfig(BlockLevel)
	cfg.PagesPerBlock = notCandidate // a full block would read as not a GC candidate
	if _, err := New(cfg); err == nil {
		t.Errorf("%d pages per block accepted", cfg.PagesPerBlock)
	}
}

// refDevice is the FTL as first written: a byte page-state array next to
// the owner table, and a GC victim search that rescans every block's
// programmed and valid counts. FuzzDeviceMatchesReference holds Device to
// it.
type refDevice struct {
	cfg          Config
	logicalPages int
	pagesPerBlk  int
	l2p          []int
	pageState    []byte // 0 free, 1 valid, 2 invalid
	owner        []int
	blockValid   []int
	programmed   []int
	openBlock    int
	nextPage     int
	freeBlks     []int
	live         []int
	seqNext      []int

	hostWrites, flashWrites, erases int64
}

func newRefDevice(cfg Config) *refDevice {
	logical := int(cfg.CapBytes / cfg.PageBytes)
	total := int(float64(logical) * (1 + cfg.Overprovision))
	blocks := (total + cfg.PagesPerBlock - 1) / cfg.PagesPerBlock
	total = blocks * cfg.PagesPerBlock
	d := &refDevice{
		cfg:          cfg,
		logicalPages: logical,
		pagesPerBlk:  cfg.PagesPerBlock,
		l2p:          make([]int, logical),
		pageState:    make([]byte, total),
		owner:        make([]int, total),
		blockValid:   make([]int, blocks),
		programmed:   make([]int, blocks),
		seqNext:      make([]int, (logical+cfg.PagesPerBlock-1)/cfg.PagesPerBlock),
	}
	for i := range d.l2p {
		d.l2p[i] = -1
	}
	for i := range d.owner {
		d.owner[i] = -1
	}
	for i := range d.seqNext {
		d.seqNext[i] = -1
	}
	for b := blocks - 1; b >= 1; b-- {
		d.freeBlks = append(d.freeBlks, b)
	}
	return d
}

func (d *refDevice) writePage(lp int) {
	if lp < 0 || lp >= d.logicalPages {
		return
	}
	d.hostWrites++
	if d.cfg.Mapping == BlockLevel && d.l2p[lp] >= 0 {
		lblk := lp / d.pagesPerBlk
		switch {
		case lp%d.pagesPerBlk == 0, d.seqNext[lblk] == lp:
			d.seqNext[lblk] = lp + 1
			d.program(lp)
		default:
			d.seqNext[lblk] = -1
			blkStart := lblk * d.pagesPerBlk
			for i := 0; i < d.pagesPerBlk; i++ {
				tgt := blkStart + i
				if tgt >= d.logicalPages {
					break
				}
				if d.l2p[tgt] >= 0 || tgt == lp {
					d.program(tgt)
				}
			}
		}
		return
	}
	d.program(lp)
}

func (d *refDevice) program(lp int) {
	if d.nextPage == d.pagesPerBlk {
		for len(d.freeBlks) == 0 {
			d.collect()
		}
		n := len(d.freeBlks) - 1
		d.openBlock = d.freeBlks[n]
		d.freeBlks = d.freeBlks[:n]
		d.nextPage = 0
	}
	pp := d.openBlock*d.pagesPerBlk + d.nextPage
	d.nextPage++
	if old := d.l2p[lp]; old >= 0 {
		d.pageState[old] = 2
		d.blockValid[old/d.pagesPerBlk]--
	}
	d.pageState[pp] = 1
	d.owner[pp] = lp
	d.l2p[lp] = pp
	d.blockValid[d.openBlock]++
	d.programmed[d.openBlock]++
	d.flashWrites++
}

func (d *refDevice) collect() {
	victim, best := -1, 1<<30
	for b := range d.blockValid {
		if b == d.openBlock || d.programmed[b] == 0 {
			continue
		}
		if d.blockValid[b] < best {
			victim, best = b, d.blockValid[b]
		}
	}
	if victim < 0 {
		panic("ftl: no GC victim (device sized too small)")
	}
	if best == d.pagesPerBlk {
		panic("ftl: GC cannot make progress; increase overprovisioning")
	}
	base := len(d.live)
	for i := 0; i < d.pagesPerBlk; i++ {
		pp := victim*d.pagesPerBlk + i
		if d.pageState[pp] == 1 {
			d.live = append(d.live, d.owner[pp])
		}
		d.pageState[pp] = 0
		d.owner[pp] = -1
	}
	end := len(d.live)
	d.blockValid[victim] = 0
	d.programmed[victim] = 0
	d.erases++
	d.freeBlks = append(d.freeBlks, victim)
	for i := base; i < end; i++ {
		lp := d.live[i]
		d.l2p[lp] = -1
		d.program(lp)
	}
	d.live = d.live[:base]
}

// panicOf runs f and returns its panic value, or nil.
func panicOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// FuzzDeviceMatchesReference drives Device and refDevice through the same
// sequence of single-page writes, sequential fills and random overwrite
// bursts on small geometries under both mappings, and requires the same
// host writes, flash writes, erases and logical-to-physical table after
// every operation, or the same panic.
func FuzzDeviceMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), []byte{0xff, 1, 2, 3, 0xfe, 7})
	f.Add(uint8(1), uint8(1), uint8(20), uint8(255), []byte{0xff, 0xfe, 0xfe, 0xff, 9, 9, 9})
	f.Add(uint8(1), uint8(2), uint8(3), uint8(128), []byte{0xff, 0xff, 0xfe, 5, 0, 1, 2, 3, 4})
	f.Add(uint8(0), uint8(2), uint8(9), uint8(40), []byte{0xff, 0xfe, 0xfe, 0xfe, 0xff})
	f.Fuzz(func(t *testing.T, mapping, geom, blocks, op uint8, ops []byte) {
		if len(ops) > 64 {
			return
		}
		cfg := DefaultConfig(Mapping(mapping % 2))
		cfg.PagesPerBlock = []int{3, 5, 64}[geom%3]
		cfg.PageBytes = 4096
		cfg.CapBytes = int64(1+int(blocks)%24) * int64(cfg.PagesPerBlock) * cfg.PageBytes
		cfg.Overprovision = 0.07 + 0.23*float64(op)/255
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefDevice(cfg)
		rng, refRng := rand.New(rand.NewSource(int64(len(ops)))), rand.New(rand.NewSource(int64(len(ops))))
		for i, o := range ops {
			var run, runRef func()
			switch o {
			case 0xff: // the whole logical space in order
				run = func() { _ = d.SequentialFill() }
				runRef = func() {
					for lp := 0; lp < ref.logicalPages; lp++ {
						ref.writePage(lp)
					}
				}
			case 0xfe: // a burst of random overwrites
				n := 1 + i%40
				run = func() { _ = d.RandomOverwrite(rng, n) }
				runRef = func() {
					for k := 0; k < n; k++ {
						ref.writePage(refRng.Intn(ref.logicalPages))
					}
				}
			default: // one page, possibly out of range
				lp := int(o) - 8
				run = func() { _ = d.WritePage(lp) }
				runRef = func() { ref.writePage(lp) }
			}
			p, pRef := panicOf(run), panicOf(runRef)
			if p != pRef {
				t.Fatalf("op %d (%#x): panic %v, reference %v", i, o, p, pRef)
			}
			if p != nil {
				return
			}
			if d.hostWrites != ref.hostWrites || d.flashWrites != ref.flashWrites || d.erases != ref.erases {
				t.Fatalf("op %d (%#x): host/flash writes, erases %d/%d/%d, reference %d/%d/%d", i, o,
					d.hostWrites, d.flashWrites, d.erases, ref.hostWrites, ref.flashWrites, ref.erases)
			}
			for lp, pp := range ref.l2p {
				if int(d.l2p[lp]) != pp {
					t.Fatalf("op %d (%#x): l2p[%d] = %d, reference %d", i, o, lp, d.l2p[lp], pp)
				}
			}
		}
	})
}
