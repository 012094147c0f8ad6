package writeback

import (
	"fmt"
	"testing"
	"testing/quick"
)

// The step-by-step oracle for the closed-form WAFs: a buffer manager that
// stages each decoding step and spills page-rounded chunks.

// Validate reports invalid configurations.
func (c Config) Validate() error {
	if c.SpillInterval < 1 || c.Rows < 1 || c.EntryBytes < 1 || c.PageBytes < 1 {
		return fmt.Errorf("writeback: non-positive config %+v", c)
	}
	return nil
}

// Manager tracks buffered tokens and accumulates write statistics. The zero
// value is not usable; construct with New.
type Manager struct {
	cfg      Config
	buffered int // decoding steps currently buffered

	logicalBytes  int64 // application bytes destined for storage
	physicalBytes int64 // bytes actually written after page rounding
	spills        int   // spill operations issued
}

// New returns a manager for the given configuration.
func New(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Manager{cfg: cfg}, nil
}

// Spill describes one flush of the host-side buffers to storage.
type Spill struct {
	Steps         int   // buffered decoding steps flushed
	LogicalBytes  int64 // useful bytes across all rows
	PhysicalBytes int64 // after rounding each row's chunk up to a page
	ChunkBytes    int64 // contiguous bytes appended per row
}

// Append records one decoding step's new KV entries. When the buffer reaches
// the spill interval it returns the spill operation to issue (asynchronously,
// off the critical path) and true; otherwise it returns false.
func (m *Manager) Append() (Spill, bool) {
	m.buffered++
	if m.buffered < m.cfg.SpillInterval {
		return Spill{}, false
	}
	return m.flush(), true
}

// Flush forces a spill of whatever is buffered (e.g. at sequence end).
// It reports false if nothing was buffered.
func (m *Manager) Flush() (Spill, bool) {
	if m.buffered == 0 {
		return Spill{}, false
	}
	return m.flush(), true
}

func (m *Manager) flush() Spill {
	steps := m.buffered
	m.buffered = 0
	chunk := int64(steps) * m.cfg.EntryBytes
	phys := roundUp(chunk, m.cfg.PageBytes)
	s := Spill{
		Steps:         steps,
		LogicalBytes:  chunk * int64(m.cfg.Rows),
		PhysicalBytes: phys * int64(m.cfg.Rows),
		ChunkBytes:    chunk,
	}
	m.logicalBytes += s.LogicalBytes
	m.physicalBytes += s.PhysicalBytes
	m.spills++
	return s
}

// Buffered returns the number of decoding steps currently staged in host
// memory.
func (m *Manager) Buffered() int { return m.buffered }

// BufferBytes returns the host-memory footprint of the staged entries.
func (m *Manager) BufferBytes() int64 {
	return int64(m.buffered) * m.cfg.EntryBytes * int64(m.cfg.Rows)
}

// Stats returns cumulative logical bytes, physical bytes and spill count.
func (m *Manager) Stats() (logical, physical int64, spills int) {
	return m.logicalBytes, m.physicalBytes, m.spills
}

// WAF returns the cumulative write amplification factor (physical/logical);
// 1 when nothing has been written.
func (m *Manager) WAF() float64 {
	if m.logicalBytes == 0 {
		return 1
	}
	return float64(m.physicalBytes) / float64(m.logicalBytes)
}

// paperCfg is the §4.3 setting: 256-byte KV entries per head per tensor
// (d=128, FP16, K+V = 512 B per step per row), 4 KiB pages, spill c=16.
func paperCfg() Config {
	return Config{SpillInterval: 16, Rows: 96, EntryBytes: 512, PageBytes: 4096}
}

func TestSpillAtInterval(t *testing.T) {
	m, err := New(paperCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if _, ok := m.Append(); ok {
			t.Fatalf("spill issued at step %d, before interval", i+1)
		}
	}
	s, ok := m.Append()
	if !ok {
		t.Fatal("no spill at the interval")
	}
	if s.Steps != 16 {
		t.Errorf("spill covers %d steps, want 16", s.Steps)
	}
	if m.Buffered() != 0 {
		t.Errorf("buffer not drained: %d", m.Buffered())
	}
}

// With c=16 and 512-byte entries the chunk is exactly two pages: WAF = 1.
// This is why the paper finds c=16 aligned with the 4 KiB page optimal.
func TestSpillIntervalSixteenIsPageAligned(t *testing.T) {
	c := paperCfg()
	if waf := c.SteadyStateWAF(); waf != 1 {
		t.Errorf("c=16 steady-state WAF = %v, want 1", waf)
	}
	// K-only rows (256 B per step, the paper's per-tensor number): c=16
	// gives exactly one 4 KiB page.
	c.EntryBytes = 256
	if waf := c.SteadyStateWAF(); waf != 1 {
		t.Errorf("256B entries, c=16: WAF = %v, want 1", waf)
	}
}

func TestNaiveWAFMatchesPaper(t *testing.T) {
	c := paperCfg()
	c.EntryBytes = 256
	// "each KV entry (256 bytes) is far smaller than the SSD page size
	// (4 KiB), leading to poor write performance": 16× amplification.
	if waf := c.NaiveWAF(); waf != 16 {
		t.Errorf("naive WAF = %v, want 16", waf)
	}
}

func TestDelayedBeatsNaive(t *testing.T) {
	for _, ci := range []int{2, 4, 8, 16, 32, 64} {
		c := paperCfg()
		c.SpillInterval = ci
		if c.SteadyStateWAF() > c.NaiveWAF() {
			t.Errorf("c=%d: delayed WAF %v worse than naive %v", ci, c.SteadyStateWAF(), c.NaiveWAF())
		}
	}
}

// WAF is non-increasing in the spill interval (larger chunks waste less).
func TestWAFMonotoneInInterval(t *testing.T) {
	c := paperCfg()
	prev := c.NaiveWAF()
	for ci := 1; ci <= 64; ci *= 2 {
		c.SpillInterval = ci
		w := c.SteadyStateWAF()
		if w > prev+1e-12 {
			t.Errorf("WAF increased at c=%d: %v > %v", ci, w, prev)
		}
		prev = w
	}
}

func TestFlushPartial(t *testing.T) {
	m, _ := New(paperCfg())
	for i := 0; i < 5; i++ {
		m.Append()
	}
	s, ok := m.Flush()
	if !ok || s.Steps != 5 {
		t.Fatalf("flush = %+v, %v; want 5 steps", s, ok)
	}
	if _, ok := m.Flush(); ok {
		t.Error("empty flush reported a spill")
	}
}

func TestAccountingConsistency(t *testing.T) {
	m, _ := New(paperCfg())
	totalSteps := 100
	var spilledSteps int
	for i := 0; i < totalSteps; i++ {
		if s, ok := m.Append(); ok {
			spilledSteps += s.Steps
		}
	}
	if s, ok := m.Flush(); ok {
		spilledSteps += s.Steps
	}
	if spilledSteps != totalSteps {
		t.Errorf("spilled %d steps, want %d", spilledSteps, totalSteps)
	}
	logical, physical, _ := m.Stats()
	wantLogical := int64(totalSteps) * 512 * 96
	if logical != wantLogical {
		t.Errorf("logical bytes %d, want %d", logical, wantLogical)
	}
	if physical < logical {
		t.Errorf("physical %d below logical %d", physical, logical)
	}
}

func TestBufferBytes(t *testing.T) {
	m, _ := New(paperCfg())
	m.Append()
	m.Append()
	if got := m.BufferBytes(); got != 2*512*96 {
		t.Errorf("buffer bytes = %d, want %d", got, 2*512*96)
	}
}

// Physical bytes always equal logical rounded up per spill chunk; the WAF
// never drops below 1.
func TestWAFAtLeastOne(t *testing.T) {
	f := func(interval, entry uint8) bool {
		c := Config{
			SpillInterval: int(interval%64) + 1,
			Rows:          4,
			EntryBytes:    int64(entry%200) + 1,
			PageBytes:     4096,
		}
		m, err := New(c)
		if err != nil {
			return false
		}
		for i := 0; i < 70; i++ {
			m.Append()
		}
		m.Flush()
		return m.WAF() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The closed forms are the manager's cumulative WAF: SteadyStateWAF over
// whole spill intervals, NaiveWAF when every step spills on its own.
func TestClosedFormsMatchManager(t *testing.T) {
	f := func(interval, entry, spills uint8) bool {
		c := Config{
			SpillInterval: int(interval%64) + 1,
			Rows:          4,
			EntryBytes:    int64(entry)*37 + 1, // up to ~2.3 pages
			PageBytes:     4096,
		}
		naive := c
		naive.SpillInterval = 1
		m, err := New(c)
		mn, errn := New(naive)
		if err != nil || errn != nil {
			return false
		}
		for i := 0; i < c.SpillInterval*(int(spills%4)+1); i++ {
			m.Append()
			mn.Append()
		}
		return m.WAF() == c.SteadyStateWAF() && mn.WAF() == c.NaiveWAF()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := New(Config{SpillInterval: 0, Rows: 1, EntryBytes: 1, PageBytes: 1}); err == nil {
		t.Error("zero interval accepted")
	}
}
