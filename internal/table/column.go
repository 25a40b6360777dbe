package table

import (
	"fmt"
	"strconv"
)

// Value is a dynamically typed cell value: int64, float64 or string.
type Value interface{}

// Column is typed columnar storage.
type Column interface {
	// Type reports the column's element type.
	Type() Type
	// Len reports the number of stored values.
	Len() int
	// Value returns the cell at row i as a dynamic value.
	Value(i int) Value
	// StringAt renders the cell at row i.
	StringAt(i int) string
	// append adds a dynamic value; implementations validate the type.
	append(v Value) error
}

// IntColumn stores int64 values.
type IntColumn struct{ data []int64 }

// Type implements Column.
func (c *IntColumn) Type() Type { return Int }

// Len implements Column.
func (c *IntColumn) Len() int { return len(c.data) }

// Value implements Column.
func (c *IntColumn) Value(i int) Value { return c.data[i] }

// At returns the typed value at row i.
func (c *IntColumn) At(i int) int64 { return c.data[i] }

// Data exposes the backing slice for read-only scans.
func (c *IntColumn) Data() []int64 { return c.data }

// StringAt implements Column.
func (c *IntColumn) StringAt(i int) string { return strconv.FormatInt(c.data[i], 10) }

func (c *IntColumn) append(v Value) error {
	switch x := v.(type) {
	case int64:
		c.data = append(c.data, x)
	case int:
		c.data = append(c.data, int64(x))
	default:
		return fmt.Errorf("table: cannot append %T to int column", v)
	}
	return nil
}

// FloatColumn stores float64 values.
type FloatColumn struct{ data []float64 }

// Type implements Column.
func (c *FloatColumn) Type() Type { return Float }

// Len implements Column.
func (c *FloatColumn) Len() int { return len(c.data) }

// Value implements Column.
func (c *FloatColumn) Value(i int) Value { return c.data[i] }

// At returns the typed value at row i.
func (c *FloatColumn) At(i int) float64 { return c.data[i] }

// Data exposes the backing slice for read-only scans.
func (c *FloatColumn) Data() []float64 { return c.data }

// StringAt implements Column.
func (c *FloatColumn) StringAt(i int) string {
	return strconv.FormatFloat(c.data[i], 'g', -1, 64)
}

func (c *FloatColumn) append(v Value) error {
	switch x := v.(type) {
	case float64:
		c.data = append(c.data, x)
	case int64:
		c.data = append(c.data, float64(x))
	case int:
		c.data = append(c.data, float64(x))
	default:
		return fmt.Errorf("table: cannot append %T to float column", v)
	}
	return nil
}

// StringColumn stores string values with lightweight interning so the
// categorical columns that dominate this workload do not duplicate storage.
type StringColumn struct {
	data   []int32
	dict   []string
	lookup map[string]int32
}

// Type implements Column.
func (c *StringColumn) Type() Type { return String }

// Len implements Column.
func (c *StringColumn) Len() int { return len(c.data) }

// Value implements Column.
func (c *StringColumn) Value(i int) Value { return c.dict[c.data[i]] }

// At returns the typed value at row i.
func (c *StringColumn) At(i int) string { return c.dict[c.data[i]] }

// StringAt implements Column.
func (c *StringColumn) StringAt(i int) string { return c.dict[c.data[i]] }

// Cardinality returns the number of distinct values seen.
func (c *StringColumn) Cardinality() int { return len(c.dict) }

// Code returns the dictionary code of the value at row i; codes are dense
// in [0, Cardinality()).
func (c *StringColumn) Code(i int) int { return int(c.data[i]) }

func (c *StringColumn) append(v Value) error {
	s, ok := v.(string)
	if !ok {
		return fmt.Errorf("table: cannot append %T to string column", v)
	}
	if c.lookup == nil {
		c.lookup = make(map[string]int32)
	}
	code, ok := c.lookup[s]
	if !ok {
		code = int32(len(c.dict))
		c.dict = append(c.dict, s)
		c.lookup[s] = code
	}
	c.data = append(c.data, code)
	return nil
}

// newColumn allocates an empty column of the given type.
func newColumn(t Type) Column {
	switch t {
	case Int:
		return &IntColumn{}
	case Float:
		return &FloatColumn{}
	case String:
		return &StringColumn{}
	default:
		panic(fmt.Sprintf("table: unknown column type %d", t))
	}
}
