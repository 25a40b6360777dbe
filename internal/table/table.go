package table

import (
	"fmt"
	"sync"
)

// Table is an append-only columnar relation.
type Table struct {
	name   string
	schema *Schema
	cols   []Column
	rows   int

	// postings caches equality-filter answers (see Postings). It is valid
	// while postingsRows == rows, so an append needs no lock of its own.
	postingsMu   sync.Mutex
	postings     map[postingKey][]int32
	postingsRows int
}

// New creates an empty table with the given name and schema.
func New(name string, schema *Schema) *Table {
	cols := make([]Column, schema.Len())
	for i := 0; i < schema.Len(); i++ {
		cols[i] = newColumn(schema.Col(i).Type)
	}
	return &Table{name: name, schema: schema, cols: cols}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.rows }

// AppendRow appends one row; vals must match the schema's arity and types
// (ints coerce into float columns).
func (t *Table) AppendRow(vals ...Value) error {
	if len(vals) != t.schema.Len() {
		return fmt.Errorf("table %s: row arity %d, schema arity %d", t.name, len(vals), t.schema.Len())
	}
	for i, v := range vals {
		if err := t.cols[i].append(v); err != nil {
			// Roll back the partial row so columns stay aligned.
			for j := 0; j < i; j++ {
				t.truncateColumn(j)
			}
			return fmt.Errorf("table %s column %s: %w", t.name, t.schema.Col(i).Name, err)
		}
	}
	t.rows++
	return nil
}

func (t *Table) truncateColumn(j int) {
	switch c := t.cols[j].(type) {
	case *IntColumn:
		c.data = c.data[:len(c.data)-1]
	case *FloatColumn:
		c.data = c.data[:len(c.data)-1]
	case *StringColumn:
		c.data = c.data[:len(c.data)-1]
	}
}

// Column returns the column at position i.
func (t *Table) Column(i int) Column { return t.cols[i] }

// ColumnByName returns the named column, or nil if absent.
func (t *Table) ColumnByName(name string) Column {
	i := t.schema.Lookup(name)
	if i < 0 {
		return nil
	}
	return t.cols[i]
}

// IntColumn returns the named column as *IntColumn, or an error.
func (t *Table) IntColumn(name string) (*IntColumn, error) {
	c := t.ColumnByName(name)
	if c == nil {
		return nil, fmt.Errorf("table %s: no column %q", t.name, name)
	}
	ic, ok := c.(*IntColumn)
	if !ok {
		return nil, fmt.Errorf("table %s: column %q is %s, not int", t.name, name, c.Type())
	}
	return ic, nil
}

// FloatColumn returns the named column as *FloatColumn, or an error.
func (t *Table) FloatColumn(name string) (*FloatColumn, error) {
	c := t.ColumnByName(name)
	if c == nil {
		return nil, fmt.Errorf("table %s: no column %q", t.name, name)
	}
	fc, ok := c.(*FloatColumn)
	if !ok {
		return nil, fmt.Errorf("table %s: column %q is %s, not float", t.name, name, c.Type())
	}
	return fc, nil
}

// StringColumn returns the named column as *StringColumn, or an error.
func (t *Table) StringColumn(name string) (*StringColumn, error) {
	c := t.ColumnByName(name)
	if c == nil {
		return nil, fmt.Errorf("table %s: no column %q", t.name, name)
	}
	sc, ok := c.(*StringColumn)
	if !ok {
		return nil, fmt.Errorf("table %s: column %q is %s, not string", t.name, name, c.Type())
	}
	return sc, nil
}

// Row materializes row i as dynamic values (for display and small results).
func (t *Table) Row(i int) []Value {
	row := make([]Value, len(t.cols))
	for j, c := range t.cols {
		row[j] = c.Value(i)
	}
	return row
}

// CellString renders cell (row, col) as a string.
func (t *Table) CellString(row, col int) string { return t.cols[col].StringAt(row) }
