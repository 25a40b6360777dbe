// Package atomicmix exercises the atomicmix analyzer: function-style
// sync/atomic calls are forbidden (their operand stays open to plain
// access elsewhere); typed atomics and plain variables are fine.
package atomicmix

import (
	"sync/atomic"
	"unsafe"
)

type counters struct {
	hits  int64
	plain int64
	typed atomic.Int64
	ptr   unsafe.Pointer
}

var generation uint64

func (c *counters) flaggedAdd() {
	atomic.AddInt64(&c.hits, 1) // want "mixed atomic/plain access"
}

func (c *counters) flaggedLoadStore() int64 {
	atomic.StoreInt64(&c.hits, 0)    // want "mixed atomic/plain access"
	return atomic.LoadInt64(&c.hits) // want "function-style atomic.LoadInt64"
}

func flaggedGlobal() uint64 {
	return atomic.AddUint64(&generation, 1) // want "mixed atomic/plain access"
}

func (c *counters) flaggedPointer() unsafe.Pointer {
	return atomic.LoadPointer(&c.ptr) // want "function-style atomic.LoadPointer"
}

// cleanPlainOnly: plain is never touched atomically, so plain access is
// fine.
func (c *counters) cleanPlainOnly() int64 {
	c.plain++
	return c.plain
}

// cleanTyped: typed atomics make the mix impossible by construction.
func (c *counters) cleanTyped() int64 {
	c.typed.Add(1)
	return c.typed.Load()
}
