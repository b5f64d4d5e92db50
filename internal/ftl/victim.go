package ftl

import (
	"fmt"
	"math/bits"
)

// victimIndex is the Manager's GC candidate index: every block pickVictim
// may choose — Full, with a collecting owner, and not a fully valid regular
// block — filed under its owner and its victim key, the key ordering class
// (bad < harvested < regular) and then valid pages. Each tenant has a
// bitmap of its non-empty keys, and each key counts its members, of any
// owner, per group of 64 consecutive block indices, so a pick reads the
// owner's bitmap, the key's group counts and the groups they point at, and
// returns the lowest-index member of the owner's lowest key: the block the
// whole-table scan chooses (pickVictimScan, its test-only oracle).
//
// Every write to a block's state, owner, valid count or bad bit that can
// change its key calls Manager.reindex, which moves the block between keys
// in O(1). Removal reads the row the block was filed under, never the
// block's fields: maybeGC marks a victim blockGC before it reindexes it.
//
// The index is built by one scan of the block table at the first pick and
// kept from then on; a device that never collects never pays for it. What
// it holds grows with the tenants only by one count a key, so the group
// counts are shared: a tenant whose blocks sit above another's reads past
// the other's groups of the same key.
type victimIndex struct {
	keys   int // victim keys: 3 classes × (PagesPerBlock+1) valid counts
	kwords int // words of nonempty a tenant
	groups int // 64-block groups of the block table

	row      []int32  // per block: owner*keys + key, -1 when not a candidate
	members  []uint8  // per (key, group): candidates with the key in the group
	owned    []int32  // per (tenant, key), that is per row: its candidates
	nonempty []uint64 // per tenant, kwords words: bit key set while owned > 0
}

// Victim classes, in the order pickVictim prefers them.
const (
	classBad = iota
	classHarvested
	classRegular
)

func newVictimIndex(blocks, pagesPerBlock, tenants int) *victimIndex {
	keys := 3 * (pagesPerBlock + 1)
	groups := (blocks + 63) / 64
	x := &victimIndex{keys: keys, kwords: (keys + 63) / 64, groups: groups,
		row: make([]int32, blocks), members: make([]uint8, keys*groups)}
	for i := range x.row {
		x.row[i] = -1
	}
	for range tenants {
		x.addTenant()
	}
	return x
}

// addTenant gives the next tenant its rows.
func (x *victimIndex) addTenant() {
	x.owned = append(x.owned, make([]int32, x.keys)...)
	x.nonempty = append(x.nonempty, make([]uint64, x.kwords)...)
}

func (x *victimIndex) add(i int, row int32) {
	t, k := int(row)/x.keys, int(row)%x.keys
	x.row[i] = row
	x.members[k*x.groups+i>>6]++
	if x.owned[row]++; x.owned[row] == 1 {
		x.nonempty[t*x.kwords+k>>6] |= 1 << (uint(k) & 63)
	}
}

func (x *victimIndex) remove(i int) {
	row := x.row[i]
	t, k := int(row)/x.keys, int(row)%x.keys
	x.row[i] = -1
	x.members[k*x.groups+i>>6]--
	if x.owned[row]--; x.owned[row] == 0 {
		x.nonempty[t*x.kwords+k>>6] &^= 1 << (uint(k) & 63)
	}
}

// pick returns tenant t's best victim, or -1 when it has no candidate.
func (x *victimIndex) pick(t int) int {
	for w, word := range x.nonempty[t*x.kwords : (t+1)*x.kwords] {
		if word == 0 {
			continue
		}
		k := w<<6 + bits.TrailingZeros64(word)
		row := int32(t*x.keys + k)
		for g, n := range x.members[k*x.groups : (k+1)*x.groups] {
			if n == 0 {
				continue
			}
			for i := g << 6; i < min(g<<6+64, len(x.row)); i++ {
				if x.row[i] == row {
					return i
				}
			}
		}
		panic(fmt.Sprintf("ftl: victim index counts %d blocks of tenant %d under key %d and holds none", x.owned[row], t, k))
	}
	return -1
}

// victims returns the index, building it by one scan on first use.
func (m *Manager) victims() *victimIndex {
	if m.victimIdx == nil {
		m.victimIdx = newVictimIndex(len(m.blocks), m.cfg.PagesPerBlock, len(m.tenants))
		for i := range m.blocks {
			m.reindex(i)
		}
	}
	return m.victimIdx
}

// reindex files block idx under its current victim key, or takes it out of
// the index when it is no longer a candidate. Call it after every write
// that can change the key: the block entering or leaving blockFull, a valid
// page lost while Full, the bad bit set. A no-op until the index is built.
func (m *Manager) reindex(idx int) {
	x := m.victimIdx
	if x == nil {
		return
	}
	b := &m.blocks[idx]
	row := int32(-1)
	// A fully valid regular block yields no free pages; collecting it would
	// be pure write amplification (and can livelock GC re-arming). A fully
	// valid *harvested* block is still worth collecting: its data migrates
	// into the harvester's own space and the block returns to this tenant's
	// pool. A *bad* block must be collected no matter what — its surviving
	// pages need to move off the failing media before it is retired.
	if b.state == blockFull && b.owner >= 0 && (b.bad || b.harvested || int(b.valid) < m.cfg.PagesPerBlock) {
		class := classRegular
		if b.harvested {
			class = classHarvested
		}
		if b.bad {
			class = classBad
		}
		row = int32(int(b.owner)*x.keys + class*(m.cfg.PagesPerBlock+1) + int(b.valid))
	}
	if old := x.row[idx]; old != row {
		if old >= 0 {
			x.remove(idx)
		}
		if row >= 0 {
			x.add(idx, row)
		}
	}
}
