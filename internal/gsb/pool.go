package gsb

import "sync"

// gsbPool is the idle-gSB container: a mutex-guarded LIFO slice.
//
// The paper describes a lock-free pool (Harris-style list). An
// implementation of it was benchmarked against this one and retired: under
// this codebase's contention profile the mutex pool won on both axes
// (~18.5 ns/op, 0 B/op vs ~38.4 ns/op, 12 B/op): pool operations are a
// handful per decision window, the uncontended mutex fast path is two
// atomic ops, and the slice reuses its backing array where the list
// allocated a node per push. See docs/PERFORMANCE.md.
//
// Matching is LIFO (most recently pushed first), the order the paper's
// list gives with its head push + head-first scan.
type gsbPool struct {
	mu    sync.Mutex
	items []*GSB
}

// pushFront adds g to the pool.
func (p *gsbPool) pushFront(g *GSB) {
	p.mu.Lock()
	p.items = append(p.items, g)
	p.mu.Unlock()
}

// removeFirst removes and returns the most recently pushed gSB matching
// pred.
func (p *gsbPool) removeFirst(pred func(*GSB) bool) (*GSB, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.items) - 1; i >= 0; i-- {
		if pred(p.items[i]) {
			g := p.items[i]
			copy(p.items[i:], p.items[i+1:])
			p.items[len(p.items)-1] = nil
			p.items = p.items[:len(p.items)-1]
			return g, true
		}
	}
	return nil, false
}
