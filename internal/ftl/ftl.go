// Package ftl is a small flash-translation-layer simulator backing the
// §7.2 argument: "higher internal bandwidth could be achieved through
// lightweight SSD mechanisms, such as coarse-grained block-level FTL
// mappings instead of DRAM-intensive page-level mappings... particularly
// effective because our design ensures sequential KV cache accesses for
// both reads and writes".
//
// The simulator implements a log-structured FTL with greedy garbage
// collection and two mapping granularities. It measures the two quantities
// the argument rests on: the DRAM footprint of the mapping table, and the
// write amplification each access pattern induces under each mapping.
package ftl

import (
	"fmt"
	"math"
	"math/rand"
)

// Mapping selects the translation granularity.
type Mapping int

// Mapping granularities.
const (
	// PageLevel maps every 4 KiB page independently (flexible, DRAM-heavy).
	PageLevel Mapping = iota
	// BlockLevel maps whole erase blocks (cheap table, but sub-block
	// overwrites force a read-modify-write of the entire block).
	BlockLevel
)

// String names the mapping.
func (m Mapping) String() string {
	if m == BlockLevel {
		return "block-level"
	}
	return "page-level"
}

// Config sizes the simulated device.
type Config struct {
	CapBytes      int64
	PageBytes     int64
	PagesPerBlock int
	// Overprovision is the spare-capacity fraction hidden from the host
	// (enterprise SSDs: ~7–28%).
	Overprovision float64
	Mapping       Mapping
	// MapEntryBytes is the DRAM cost per mapping entry.
	MapEntryBytes int64
}

// DefaultConfig models a small slice of a 3.84 TB SmartSSD (simulating the
// full device would need gigabytes of host memory; WAF behaviour is
// capacity-invariant for a fixed overprovision ratio).
func DefaultConfig(mapping Mapping) Config {
	return Config{
		CapBytes:      256 << 20, // 256 MiB slice
		PageBytes:     4 << 10,
		PagesPerBlock: 64,
		Overprovision: 0.07,
		Mapping:       mapping,
		MapEntryBytes: 4,
	}
}

// Validate reports inconsistent configurations.
func (c Config) Validate() error {
	switch {
	case c.CapBytes <= 0 || c.PageBytes <= 0 || c.PagesPerBlock <= 0:
		return fmt.Errorf("ftl: non-positive geometry %+v", c)
	case c.Overprovision < 0 || c.Overprovision >= 1:
		return fmt.Errorf("ftl: overprovision %v out of [0,1)", c.Overprovision)
	case c.MapEntryBytes <= 0:
		return fmt.Errorf("ftl: non-positive map entry size")
	}
	return nil
}

// MappingTableBytes returns the DRAM footprint of the translation table for
// a device of the given capacity — the §7.2 "DRAM-intensive" comparison.
// It is a pure function of the geometry, independent of the simulated slice.
func MappingTableBytes(capBytes, pageBytes int64, pagesPerBlock int, m Mapping, entryBytes int64) int64 {
	switch m {
	case BlockLevel:
		blockBytes := pageBytes * int64(pagesPerBlock)
		return (capBytes + blockBytes - 1) / blockBytes * entryBytes
	default:
		return (capBytes + pageBytes - 1) / pageBytes * entryBytes
	}
}

// Device is the simulated FTL state. Its tables are int32: a simulated
// slice holds far fewer than 2^31 pages, and New rejects one that does not.
type Device struct {
	cfg Config

	logicalPages int // host-visible pages
	totalPages   int // physical pages incl. overprovision
	pagesPerBlk  int

	// l2p maps logical page → physical page (-1 = unwritten).
	l2p []int32
	// owner maps physical page → the logical page it holds while valid,
	// -1 for a free or invalidated page (GC relocates the valid ones).
	owner []int32
	// blockValid is each block's valid page count, plus notCandidate while
	// the block sits in the free pool or is open. GC's greedy victim is
	// then simply the block with the least blockValid.
	blockValid []int32

	openBlock int // block currently receiving writes
	nextPage  int // next page index within the open block
	freeBlks  []int32
	live      []int32 // GC relocation scratch stack (see collect)

	// seqNext tracks, per logical block, the next expected page of an
	// in-flight sequential rewrite (block-level mapping absorbs sequential
	// overwrites into a replacement block, like hybrid log-block FTLs);
	// -1 when no rewrite is in flight.
	seqNext []int32

	hostWrites  int64 // pages the host asked to write
	flashWrites int64 // pages physically programmed (incl. GC and RMW)
	erases      int64
}

// notCandidate biases the valid count of a free or open block so that no
// GC candidate, whose count is at most PagesPerBlock, ever ties with it.
const notCandidate = 1 << 30

// New returns an empty device. The physical page count must fit an int32,
// and a block must hold fewer than notCandidate pages.
func New(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	logical := cfg.CapBytes / cfg.PageBytes
	physical := float64(logical) * (1 + cfg.Overprovision)
	ppb := int64(cfg.PagesPerBlock)
	if physical > math.MaxInt32 {
		return nil, fmt.Errorf("ftl: %.0f physical pages exceed the int32 page tables", physical)
	}
	if ppb >= notCandidate {
		return nil, fmt.Errorf("ftl: %d pages per block reach the int32 GC bias %d", ppb, notCandidate)
	}
	// Round up to whole blocks.
	blocks := (int64(physical) + ppb - 1) / ppb
	if blocks*ppb > math.MaxInt32 {
		return nil, fmt.Errorf("ftl: %d physical pages exceed the int32 page tables", blocks*ppb)
	}
	total := int(blocks * ppb)
	d := &Device{
		cfg:          cfg,
		logicalPages: int(logical),
		totalPages:   total,
		pagesPerBlk:  cfg.PagesPerBlock,
		l2p:          make([]int32, logical),
		owner:        make([]int32, total),
		blockValid:   make([]int32, blocks),
		seqNext:      make([]int32, (logical+ppb-1)/ppb),
	}
	fill(d.l2p, -1)
	fill(d.owner, -1)
	fill(d.seqNext, -1)
	fill(d.blockValid, notCandidate) // block 0 opens, the rest are free
	for b := blocks - 1; b >= 1; b-- {
		d.freeBlks = append(d.freeBlks, int32(b))
	}
	d.openBlock = 0
	return d, nil
}

func fill(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}

// WritePage writes one logical page. Under block-level mapping, overwriting
// a page that is not the sequential successor of the block's write point
// forces a read-modify-write of the whole block (the §7.2 trade-off).
func (d *Device) WritePage(lp int) error {
	if lp < 0 || lp >= d.logicalPages {
		return fmt.Errorf("ftl: logical page %d out of range %d", lp, d.logicalPages)
	}
	d.hostWrites++
	if d.cfg.Mapping == BlockLevel && d.l2p[lp] >= 0 {
		lblk := lp / d.pagesPerBlk
		switch {
		case lp%d.pagesPerBlk == 0:
			// Sequential rewrite begins: open a replacement log block.
			d.seqNext[lblk] = int32(lp + 1)
			d.program(lp)
		case int(d.seqNext[lblk]) == lp:
			// Sequential rewrite continues.
			d.seqNext[lblk] = int32(lp + 1)
			d.program(lp)
		default:
			// Random overwrite: relocate the whole logical block.
			d.seqNext[lblk] = -1
			return d.blockRMW(lp)
		}
		return nil
	}
	d.program(lp)
	return nil
}

// program appends the logical page to the open block, garbage-collecting
// when no free space remains.
func (d *Device) program(lp int) {
	if d.nextPage == d.pagesPerBlk {
		d.advanceBlock()
	}
	pp := d.openBlock*d.pagesPerBlk + d.nextPage
	d.nextPage++
	// Invalidate the previous location.
	if old := d.l2p[lp]; old >= 0 {
		d.owner[old] = -1
		d.blockValid[int(old)/d.pagesPerBlk]--
	}
	d.owner[pp] = int32(lp)
	d.l2p[lp] = int32(pp)
	d.blockValid[d.openBlock]++
	d.flashWrites++
}

// advanceBlock opens a fresh block, running greedy GC until the free pool
// has a block (relocations during GC may themselves consume freed blocks).
// The block it closes becomes a GC candidate only then, so no collection
// it runs picks the block being closed.
func (d *Device) advanceBlock() {
	for len(d.freeBlks) == 0 {
		d.collect()
	}
	n := len(d.freeBlks) - 1
	d.blockValid[d.openBlock] -= notCandidate
	d.openBlock = int(d.freeBlks[n])
	d.freeBlks = d.freeBlks[:n]
	d.nextPage = 0
}

// collect erases the programmed block with the fewest valid pages (the
// lowest-numbered one among ties), relocating its valid pages via the freed
// space.
func (d *Device) collect() {
	victim, best := 0, d.blockValid[0]
	for b, v := range d.blockValid {
		if v < best {
			victim, best = b, v
		}
	}
	if best >= notCandidate {
		panic("ftl: no GC victim (device sized too small)")
	}
	if int(best) == d.pagesPerBlk {
		panic("ftl: GC cannot make progress; increase overprovisioning")
	}
	// Relocate valid pages: they are appended after the erase returns the
	// block to the pool, so first gather them. Relocation can re-enter
	// collect (program → advanceBlock → collect), so each call pushes its
	// pages onto the tail of the device's scratch stack and truncates back
	// to its entry length on return.
	base := len(d.live)
	pages := d.owner[victim*d.pagesPerBlk : (victim+1)*d.pagesPerBlk]
	for i, lp := range pages {
		if lp >= 0 {
			d.live = append(d.live, lp)
			pages[i] = -1
		}
	}
	end := len(d.live)
	d.blockValid[victim] = notCandidate
	d.erases++
	d.freeBlks = append(d.freeBlks, int32(victim))
	for i := base; i < end; i++ {
		lp := d.live[i]
		// Relocation writes are flash writes but not host writes.
		d.l2p[lp] = -1 // avoid double-invalidation (old page already freed)
		d.program(int(lp))
	}
	d.live = d.live[:base]
}

// blockRMW rewrites the whole logical block containing lp (block-level
// mapping overwrite path).
func (d *Device) blockRMW(lp int) error {
	blkStart := lp / d.pagesPerBlk * d.pagesPerBlk
	for i := 0; i < d.pagesPerBlk; i++ {
		tgt := blkStart + i
		if tgt >= d.logicalPages {
			break
		}
		if d.l2p[tgt] >= 0 || tgt == lp {
			d.program(tgt)
		}
	}
	return nil
}

// WAF returns flash writes over host writes (≥ 1 once data was written).
func (d *Device) WAF() float64 {
	if d.hostWrites == 0 {
		return 1
	}
	return float64(d.flashWrites) / float64(d.hostWrites)
}

// SequentialFill writes the whole logical space once in order — the HILOS
// prefill / spill pattern.
func (d *Device) SequentialFill() error {
	for lp := 0; lp < d.logicalPages; lp++ {
		if err := d.WritePage(lp); err != nil {
			return err
		}
	}
	return nil
}

// RandomOverwrite performs n single-page overwrites at uniformly random
// logical addresses — the pathological pattern block mapping cannot absorb.
func (d *Device) RandomOverwrite(rng *rand.Rand, n int) error {
	for i := 0; i < n; i++ {
		if err := d.WritePage(rng.Intn(d.logicalPages)); err != nil {
			return err
		}
	}
	return nil
}
