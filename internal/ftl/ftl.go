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

// Device is the simulated FTL state.
type Device struct {
	cfg Config

	logicalPages int // host-visible pages
	totalPages   int // physical pages incl. overprovision
	pagesPerBlk  int

	// l2p maps logical page → physical page (-1 = unwritten).
	l2p []int
	// pageState: 0 free, 1 valid, 2 invalid.
	pageState []byte
	// owner maps physical page → logical page (for GC relocation).
	owner []int
	// blockValid counts valid pages per block.
	blockValid []int
	// programmed counts programmed (valid or invalid) pages per block; a
	// block with programmed == 0 sits in the free pool.
	programmed []int

	openBlock int // block currently receiving writes
	nextPage  int // next page index within the open block
	freeBlks  []int
	live      []int // GC relocation scratch stack (see collect)

	// seqNext tracks, per logical block, the next expected page of an
	// in-flight sequential rewrite (block-level mapping absorbs sequential
	// overwrites into a replacement block, like hybrid log-block FTLs);
	// -1 when no rewrite is in flight.
	seqNext []int

	hostWrites  int64 // pages the host asked to write
	flashWrites int64 // pages physically programmed (incl. GC and RMW)
	erases      int64
}

// New returns an empty device.
func New(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	logical := int(cfg.CapBytes / cfg.PageBytes)
	total := int(float64(logical) * (1 + cfg.Overprovision))
	// Round up to whole blocks.
	blocks := (total + cfg.PagesPerBlock - 1) / cfg.PagesPerBlock
	total = blocks * cfg.PagesPerBlock
	d := &Device{
		cfg:          cfg,
		logicalPages: logical,
		totalPages:   total,
		pagesPerBlk:  cfg.PagesPerBlock,
		l2p:          make([]int, logical),
		pageState:    make([]byte, total),
		owner:        make([]int, total),
		blockValid:   make([]int, blocks),
		programmed:   make([]int, blocks),
	}
	for i := range d.l2p {
		d.l2p[i] = -1
	}
	for i := range d.owner {
		d.owner[i] = -1
	}
	d.seqNext = make([]int, (logical+cfg.PagesPerBlock-1)/cfg.PagesPerBlock)
	for i := range d.seqNext {
		d.seqNext[i] = -1
	}
	for b := blocks - 1; b >= 1; b-- {
		d.freeBlks = append(d.freeBlks, b)
	}
	d.openBlock = 0
	return d, nil
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
			d.seqNext[lblk] = lp + 1
			d.program(lp)
		case d.seqNext[lblk] == lp:
			// Sequential rewrite continues.
			d.seqNext[lblk] = lp + 1
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

// advanceBlock opens a fresh block, running greedy GC until the free pool
// has a block (relocations during GC may themselves consume freed blocks).
func (d *Device) advanceBlock() {
	for len(d.freeBlks) == 0 {
		d.collect()
	}
	n := len(d.freeBlks) - 1
	d.openBlock = d.freeBlks[n]
	d.freeBlks = d.freeBlks[:n]
	d.nextPage = 0
}

// collect erases the programmed block with the fewest valid pages,
// relocating its valid pages via the freed space.
func (d *Device) collect() {
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
	// Relocate valid pages: they are appended after the erase returns the
	// block to the pool, so first gather them. Relocation can re-enter
	// collect (program → advanceBlock → collect), so each call pushes its
	// pages onto the tail of the device's scratch stack and truncates back
	// to its entry length on return.
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
		// Relocation writes are flash writes but not host writes.
		d.l2p[lp] = -1 // avoid double-invalidation (old page already freed)
		d.program(lp)
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
