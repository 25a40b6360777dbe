package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Dense verdict state. Row ids are table positions, so what a meter or a
// cross-query cache remembers about a row lives at the row's position in a
// paged array of 4-bit states packed into atomic words: no map, no per-row
// heap object, no lock on the path that finds a row settled or claims a
// fresh one. DESIGN.md "Verdict state" gives the protocol in full.

// The states a row can be in. A cache uses only unknown, true and false.
const (
	rowUnknown uint32 = iota // never claimed
	// rowMissed is unknown again: an owner produced no outcome and gave the
	// row back. The next owner evaluates it without a second cache lookup.
	rowMissed
	rowInFlight // one goroutine owns the row and is evaluating it
	rowTrue     // settled
	rowFalse    // settled
	rowFailed   // settled as failed-final (a body failure or a breaker denial)
)

func verdictState(v bool) uint32 {
	if v {
		return rowTrue
	}
	return rowFalse
}

const (
	bitsPerRow  = 4
	rowsPerWord = 32 / bitsPerRow
	stateMask   = 1<<bitsPerRow - 1
	// lineRows is how many rows share one 64-byte cache line of state.
	lineRows = 64 * 8 / bitsPerRow
	// pageRows is how many rows one page covers: 2 KiB of states, allocated
	// when the first of its rows is touched.
	pageRows  = 4096
	pageWords = pageRows / rowsPerWord
	// minDirPages is the smallest directory allocated, so a scan over a
	// small table grows it at most once or twice.
	minDirPages = 16
)

type statePage [pageWords]atomic.Uint32

// rowStates is the one row-state structure behind Meter and
// SharedEvalCache. Pages hang off a directory indexed by row/pageRows;
// both are read with atomic loads only. The mutex serialises the rare
// writes to that structure — installing a page, swapping in a larger
// directory — and parks goroutines that found a row in flight.
type rowStates struct {
	dir atomic.Pointer[[]atomic.Pointer[statePage]]

	mu      sync.Mutex
	cond    sync.Cond    // on mu; signalled when an owner releases a row somebody waits for
	waiters atomic.Int32 // goroutines inside await; written under mu, read by release without it
}

func (s *rowStates) init() { s.cond.L = &s.mu }

// slot addresses one row's bits inside its page word.
type slot struct {
	word  *atomic.Uint32
	shift uint32
}

func (sl slot) load() uint32 { return sl.word.Load() >> sl.shift & stateMask }

// cas moves the row from state from to state to, leaving the other rows of
// the word as they are; it reports false when the row is not in from.
func (sl slot) cas(from, to uint32) bool {
	for {
		old := sl.word.Load()
		if old>>sl.shift&stateMask != from {
			return false
		}
		if sl.word.CompareAndSwap(old, old&^(stateMask<<sl.shift)|to<<sl.shift) {
			return true
		}
	}
}

func slotIn(p *statePage, row int) slot {
	return slot{&p[row%pageRows/rowsPerWord], uint32(row % rowsPerWord * bitsPerRow)}
}

// page returns the page holding row, or nil when none was installed yet.
func (s *rowStates) page(row int) *statePage {
	if row < 0 {
		panic(fmt.Sprintf("core: negative row id %d (row ids are table positions)", row))
	}
	if dir := s.dir.Load(); dir != nil && row/pageRows < len(*dir) {
		return (*dir)[row/pageRows].Load()
	}
	return nil
}

// peek reads a row's state without allocating: a row on a page nobody has
// touched is unknown.
func (s *rowStates) peek(row int) uint32 {
	if p := s.page(row); p != nil {
		return slotIn(p, row).load()
	}
	return rowUnknown
}

// slot returns the row's slot, installing its page on first touch.
func (s *rowStates) slot(row int) slot {
	p := s.page(row)
	if p == nil {
		p = s.install(row / pageRows)
	}
	return slotIn(p, row)
}

// install adds page pi. Every write to a directory happens here under mu,
// so growing — copy the page pointers into a larger directory, swap it in —
// cannot drop a page installed concurrently. A reader still holding the
// old directory finds the entry nil or out of range and comes here too.
func (s *rowStates) install(pi int) *statePage {
	s.mu.Lock()
	defer s.mu.Unlock()
	var dir []atomic.Pointer[statePage]
	if cur := s.dir.Load(); cur != nil {
		dir = *cur
	}
	if pi >= len(dir) {
		grown := make([]atomic.Pointer[statePage], max(pi+1, 2*len(dir), minDirPages))
		for i := range dir {
			grown[i].Store(dir[i].Load())
		}
		dir = grown
		s.dir.Store(&dir)
	}
	p := dir[pi].Load()
	if p == nil {
		p = new(statePage)
		dir[pi].Store(p)
	}
	return p
}

// await blocks until the row is no longer in flight.
func (s *rowStates) await(sl slot) {
	s.mu.Lock()
	s.waiters.Add(1)
	for sl.load() == rowInFlight {
		s.cond.Wait()
	}
	s.waiters.Add(-1)
	s.mu.Unlock()
}

// release ends the caller's ownership of an in-flight row, moving it to
// state to. The waiter announces itself (waiters) before it reads the row
// and the owner writes the row before it reads waiters, so one of the two
// sees the other; when it is the owner, taking mu orders the broadcast
// after the waiter has entered Wait.
func (s *rowStates) release(sl slot, to uint32) {
	if !sl.cas(rowInFlight, to) {
		panic("core: released a row that was not in flight")
	}
	if s.waiters.Load() != 0 {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// each calls fn for every row that is not unknown, in row order.
func (s *rowStates) each(fn func(row int, state uint32)) {
	dir := s.dir.Load()
	if dir == nil {
		return
	}
	for pi := range *dir {
		p := (*dir)[pi].Load()
		if p == nil {
			continue
		}
		for wi := range p {
			w := p[wi].Load()
			for k := 0; w != 0; k, w = k+1, w>>bitsPerRow {
				if st := w & stateMask; st != rowUnknown {
					fn(pi*pageRows+wi*rowsPerWord+k, st)
				}
			}
		}
	}
}
