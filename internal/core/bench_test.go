package core

import (
	"sync/atomic"
	"testing"
)

// benchRows is one table's worth of rows per benchmark iteration: eleven
// pages, like the exact_scan workload of cmd/predbench.
const benchRows = 45000

var benchSink atomic.Int64

func reportPerRow(b *testing.B, rowsPerOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rowsPerOp), "ns/row")
}

// BenchmarkMeterEval: a fresh meter evaluates every row once with an
// instant UDF, so the time is claim + settle + charge.
func BenchmarkMeterEval(b *testing.B) {
	udf := UDFFunc(func(row int) bool { return row&1 == 0 })
	b.ReportAllocs()
	for b.Loop() {
		m := NewMeter(udf)
		for row := 0; row < benchRows; row++ {
			m.Eval(row)
		}
		benchSink.Add(int64(m.Calls()))
	}
	reportPerRow(b, benchRows)
}

// BenchmarkMeterEvalParallel: every goroutine walks the same rows of one
// meter from its own offset, so claims collide inside words and most
// evaluations find the row settled or in flight.
func BenchmarkMeterEvalParallel(b *testing.B) {
	udf := UDFFunc(func(row int) bool { return row&1 == 0 })
	var m atomic.Pointer[Meter]
	m.Store(NewMeter(udf))
	var walkers atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		offset := int(walkers.Add(1)) * 97
		for pb.Next() {
			meter := m.Load()
			for i := 0; i < benchRows; i++ {
				meter.Eval((i + offset) % benchRows)
			}
			m.CompareAndSwap(meter, NewMeter(udf)) // whoever finishes first starts the next table
		}
	})
	reportPerRow(b, benchRows)
}

// BenchmarkSharedEvalCacheLookup: hits over a fully loaded cache.
func BenchmarkSharedEvalCacheLookup(b *testing.B) {
	cache := NewSharedEvalCache()
	for row := 0; row < benchRows; row++ {
		cache.Store(row, row&1 == 0)
	}
	b.ReportAllocs()
	for b.Loop() {
		hits := 0
		for row := 0; row < benchRows; row++ {
			if _, ok := cache.Lookup(row); ok {
				hits++
			}
		}
		benchSink.Add(int64(hits))
	}
	reportPerRow(b, benchRows)
}
