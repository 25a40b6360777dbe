package engine

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/stats"
	"repro/internal/table"
)

// BenchmarkFilterRows1M answers two equality filters over a 1M-row table
// shaped like predbench's filtered_scan — a 25-valued string region and a
// 40-valued int tier drawn independently, so the pair keeps about 0.1 % of
// the rows — from its posting index, warm: the work is the shorter posting
// list (~26 000 tier rows) probed by the region predicate, not the table.
func BenchmarkFilterRows1M(b *testing.B) {
	const n = 1 << 20
	tbl := table.New("events", table.MustSchema(
		table.ColumnDef{Name: "id", Type: table.Int},
		table.ColumnDef{Name: "region", Type: table.String},
		table.ColumnDef{Name: "tier", Type: table.Int},
	))
	rng := stats.NewRNG(1)
	want := 0
	for i := 0; i < n; i++ {
		region, tier := rng.IntN(25), rng.IntN(40)
		if region == 3 && tier == 17 {
			want++
		}
		if err := tbl.AppendRow(int64(i), fmt.Sprintf("r%02d", region), int64(tier)); err != nil {
			b.Fatal(err)
		}
	}
	filters := []Filter{{Column: "region", Value: "r03"}, {Column: "tier", Value: "17"}}
	if _, err := filterRows(tbl, filters); err != nil { // build the lists
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := filterRows(tbl, filters)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != want {
			b.Fatalf("%d survivors, want %d", len(rows), want)
		}
	}
}

// BenchmarkFilteredStatementCold runs exact statements whose two equality
// filters name values no earlier statement named, so no statement finds a
// posting list built: what a statement's filters cost the first time, on a
// 1M-row table. "fresh" names values some rows hold (two random columns of
// 32 768 values, ~32 rows each); "absent" names values no row holds.
func BenchmarkFilteredStatementCold(b *testing.B) {
	const n, distinct = 1 << 20, 1 << 15
	tbl := table.New("events", table.MustSchema(
		table.ColumnDef{Name: "id", Type: table.Int},
		table.ColumnDef{Name: "bucket", Type: table.Int},
		table.ColumnDef{Name: "code", Type: table.String},
	))
	rng := stats.NewRNG(1)
	for i := 0; i < n; i++ {
		if err := tbl.AppendRow(int64(i), int64(rng.IntN(distinct)), "c"+strconv.Itoa(rng.IntN(distinct))); err != nil {
			b.Fatal(err)
		}
	}
	e := New(1)
	if err := e.RegisterTable(tbl); err != nil {
		b.Fatal(err)
	}
	if err := e.RegisterUDF(UDF{Name: "f", Body: pure(func(table.Value) bool { return true })}); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		first int
	}{{"fresh", 0}, {"absent", distinct}} {
		next := c.first // shared by every run b.Run makes, so no value repeats
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if next == c.first+distinct {
					b.Fatalf("more than %d statements: values would repeat", distinct)
				}
				v := strconv.Itoa(next)
				next++
				q := Query{Table: "events", Predicates: []Conjunct{{UDFName: "f", UDFArg: "id", Want: true}},
					Filters: []Filter{{Column: "bucket", Value: v}, {Column: "code", Value: "c" + v}}}
				if _, err := e.ExecuteContext(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
