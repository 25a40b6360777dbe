package table

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// ReadCSV loads a table from CSV. The first record is the header. Column
// types are inferred from the data: a column is Int if every non-empty
// value parses as an integer, Float if every non-empty value parses as a
// finite number, else String. Empty cells do not vote during inference and
// load as the column's zero value (0, 0.0 or ""); a column with no
// non-empty cells is String. Callers keying on a numeric column (e.g. a
// simulated-UDF id) should note that an empty cell is indistinguishable
// from a literal 0 after loading. Non-finite spellings ("NaN", "Inf", …)
// are text, not numbers — they would otherwise smuggle NaN/Inf into typed
// filters and grouping. Empty files (no header) are an error.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = false
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("table: reading csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("table: csv %q has no header", name)
	}
	header := records[0]
	body := records[1:]
	types := inferTypes(header, body)
	defs := make([]ColumnDef, len(header))
	for i, h := range header {
		defs[i] = ColumnDef{Name: h, Type: types[i]}
	}
	schema, err := NewSchema(defs...)
	if err != nil {
		return nil, err
	}
	tbl := New(name, schema)
	for rowIdx, rec := range body {
		vals := make([]Value, len(rec))
		for i, cell := range rec {
			switch types[i] {
			case Int:
				if cell == "" {
					vals[i] = int64(0)
					continue
				}
				v, err := strconv.ParseInt(cell, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("table: csv row %d col %q: %w", rowIdx+2, header[i], err)
				}
				vals[i] = v
			case Float:
				if cell == "" {
					vals[i] = float64(0)
					continue
				}
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, fmt.Errorf("table: csv row %d col %q: %w", rowIdx+2, header[i], err)
				}
				vals[i] = v
			default:
				vals[i] = cell
			}
		}
		if err := tbl.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

func inferTypes(header []string, body [][]string) []Type {
	types := make([]Type, len(header))
	for i := range types {
		allInt, allFloat, nonEmpty := true, true, false
		for _, rec := range body {
			if i >= len(rec) {
				continue
			}
			cell := rec[i]
			if cell == "" {
				// A missing value says nothing about the column's type; it
				// must not demote an otherwise-numeric column to String.
				continue
			}
			nonEmpty = true
			if _, err := strconv.ParseInt(cell, 10, 64); err != nil {
				allInt = false
			}
			if f, err := strconv.ParseFloat(cell, 64); err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
				// ParseFloat accepts "NaN"/"Inf" spellings; keep those
				// columns String so typed comparisons stay total.
				allFloat = false
			}
			if !allInt && !allFloat {
				break
			}
		}
		switch {
		case !nonEmpty:
			types[i] = String
		case allInt:
			types[i] = Int
		case allFloat:
			types[i] = Float
		default:
			types[i] = String
		}
	}
	return types
}

// WriteCSV writes the table (header + all rows) to w. Reading its output
// back with ReadCSV and writing again gives the same bytes: a Float
// column's negative zero is written "-0.0", since its rendering "-0" would
// read back as the integer 0, and a record that is one empty field is
// written as "" (csv.Writer writes an empty line, which csv.Reader skips).
func WriteCSV(tbl *Table, w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	write := func(rec []string) error {
		if len(rec) != 1 || rec[0] != "" {
			return cw.Write(rec)
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
		_, err := bw.WriteString("\"\"\n")
		return err
	}
	if err := write(tbl.Schema().Names()); err != nil {
		return fmt.Errorf("table: writing csv header: %w", err)
	}
	rec := make([]string, tbl.Schema().Len())
	for i := 0; i < tbl.NumRows(); i++ {
		for j := range rec {
			rec[j] = tbl.CellString(i, j)
			if rec[j] == "-0" && tbl.Schema().Col(j).Type == Float {
				rec[j] = "-0.0"
			}
		}
		if err := write(rec); err != nil {
			return fmt.Errorf("table: writing csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}
