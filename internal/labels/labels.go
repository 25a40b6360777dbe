// Package labels loads the hidden ground-truth files (id,label CSVs, the
// format cmd/datagen writes) that back simulated expensive UDFs in the
// command-line tools and the query server.
//
// The UDF built by Predicate accepts the id value however the CSV loader
// typed the id column — int64, float64 or string — instead of silently
// answering false for every non-int64 row, which used to make whole queries
// "succeed" with zero results whenever type inference picked Float or
// String for the id column.
package labels

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Load reads an id,label CSV (header row required) into a lookup map.
// Labels "1" and "true" (any case) are positive.
func Load(r io.Reader) (map[int64]bool, error) {
	records, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) < 1 {
		return nil, fmt.Errorf("labels: empty labels file")
	}
	m := make(map[int64]bool, len(records)-1)
	for _, rec := range records[1:] {
		if len(rec) < 2 {
			return nil, fmt.Errorf("labels: labels file needs id,label columns")
		}
		id, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, err
		}
		m[id] = rec[1] == "1" || strings.EqualFold(rec[1], "true")
	}
	return m, nil
}

// LoadFile is Load reading from a file path.
func LoadFile(path string) (map[int64]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Predicate builds a simulated expensive UDF over the labels: it reports
// whether the row's id is labeled positive. Ids arrive as whatever Go type
// the CSV loader inferred for the id column — int64, float64 (accepted when
// integral) or string (accepted when it parses as an integer). Any other
// value panics with a descriptive message; the engine's fault capture turns
// that into a query-level error instead of a silent empty result.
func Predicate(m map[int64]bool) func(v any) bool {
	return func(v any) bool {
		switch id := v.(type) {
		case int64:
			return m[id]
		case float64:
			if id != math.Trunc(id) || math.IsInf(id, 0) || math.IsNaN(id) {
				panic(fmt.Sprintf("labels: non-integral float id %v", id))
			}
			// Out-of-range float→int conversion is implementation-defined;
			// without this guard such ids would silently look up a garbage
			// key and return false. 2⁶³ is exactly representable.
			if id >= 9223372036854775808.0 || id < -9223372036854775808.0 {
				panic(fmt.Sprintf("labels: float id %v overflows int64", id))
			}
			return m[int64(id)]
		case string:
			n, err := strconv.ParseInt(strings.TrimSpace(id), 10, 64)
			if err != nil {
				panic(fmt.Sprintf("labels: non-numeric string id %q", id))
			}
			return m[n]
		default:
			panic(fmt.Sprintf("labels: unsupported id type %T", v))
		}
	}
}
