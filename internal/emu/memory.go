package emu

import "encoding/binary"

// pageBits/pageSize define the sparse memory page granularity.
const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// tlbBits sizes the direct-mapped cache of resident pages in front of the
// page map: 1<<tlbBits slots, indexed by a multiplicative hash of the page
// number so the data, heap and stack pages of a program land in different
// slots.
const tlbBits = 6

type page = [pageSize]byte

// Memory is a sparse, demand-paged byte-addressable memory. The zero value
// is an empty memory; unwritten bytes read as zero, matching a zeroed
// process image. An access that stays within one page costs at most one
// page lookup: a hit in the page cache, or one map probe on a miss.
type Memory struct {
	pages map[uint64]*page
	// tlb caches resident pages by page number. Pages are never freed, so
	// a cached page can never go stale; misses are not cached, so a read
	// of an unwritten page never hides a later write to it.
	tlb [1 << tlbBits]struct {
		key  uint64
		page *page
	}
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// page returns the page holding addr, or nil when it is not resident and
// create is false.
func (m *Memory) page(addr uint64, create bool) *page {
	key := addr >> pageBits
	slot := &m.tlb[tlbSlot(key)]
	if slot.page != nil && slot.key == key {
		return slot.page
	}
	p := m.pages[key]
	if p == nil {
		if !create {
			return nil
		}
		if m.pages == nil {
			m.pages = map[uint64]*page{}
		}
		p = new(page)
		m.pages[key] = p
	}
	slot.key, slot.page = key, p
	return p
}

// tlbSlot maps a page number to its page-cache slot.
func tlbSlot(key uint64) uint64 { return (key * 0x9e3779b97f4a7c15) >> (64 - tlbBits) }

// Load8 returns the byte at addr.
func (m *Memory) Load8(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Store8 stores b at addr.
func (m *Memory) Store8(addr uint64, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// Read returns width bytes at addr as a little-endian unsigned integer.
// width must be 1, 2, 4, or 8.
func (m *Memory) Read(addr uint64, width int) uint64 {
	off := addr & pageMask
	if off+uint64(width) > pageSize {
		return m.readBytes(addr, width)
	}
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	switch width {
	case 1:
		return uint64(p[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(p[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(p[off:]))
	case 8:
		return binary.LittleEndian.Uint64(p[off:])
	}
	return m.readBytes(addr, width)
}

// Write stores the low width bytes of v at addr, little-endian.
func (m *Memory) Write(addr uint64, width int, v uint64) {
	off := addr & pageMask
	if off+uint64(width) > pageSize {
		m.writeBytes(addr, width, v)
		return
	}
	p := m.page(addr, true)
	switch width {
	case 1:
		p[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(p[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(p[off:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(p[off:], v)
	default:
		m.writeBytes(addr, width, v)
	}
}

// readBytes and writeBytes are the byte-at-a-time paths for accesses that
// cross a page boundary.
func (m *Memory) readBytes(addr uint64, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v |= uint64(m.Load8(addr+uint64(i))) << (8 * i)
	}
	return v
}

func (m *Memory) writeBytes(addr uint64, width int, v uint64) {
	for i := 0; i < width; i++ {
		m.Store8(addr+uint64(i), byte(v>>(8*i)))
	}
}

// LoadImage copies data into memory starting at base.
func (m *Memory) LoadImage(base uint64, data []byte) {
	for i, b := range data {
		m.Store8(base+uint64(i), b)
	}
}

// Footprint returns the number of resident pages, for tests and stats.
func (m *Memory) Footprint() int { return len(m.pages) }
