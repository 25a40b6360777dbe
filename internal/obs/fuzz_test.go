package obs

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"
)

// FuzzParseExposition holds the two properties of the exposition codec on
// arbitrary bytes. (1) ParseExposition never panics: it reads a /metrics
// body off the network (predbench, the CI gate), so garbage must come back
// as an error. (2) Whatever Registry.WriteExposition renders parses back to
// the values written: the input doubles as a little program registering
// counter, gauge and histogram series — label values are raw fuzz bytes, so
// quoting and escaping are exercised — and the scrape of that registry must
// be valid and carry exactly those values.
//
// Seeds: a real predsqld /metrics scrape (testdata/metrics_scrape.txt) and
// the malformed inputs of TestParseExpositionRejectsGarbage.
func FuzzParseExposition(f *testing.F) {
	scrape, err := os.ReadFile("testdata/metrics_scrape.txt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(scrape)
	for _, in := range malformedExpositions {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParseExposition(bytes.NewReader(data))

		reg := NewRegistry()
		want := writeFuzzedFamilies(reg, data)
		var buf bytes.Buffer
		if err := reg.WriteExposition(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ParseExposition(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("rendered exposition does not parse: %v\n%s", err, buf.Bytes())
		}
		if len(got) != len(want) {
			t.Fatalf("parsed %d samples, wrote %d\n%s", len(got), len(want), buf.Bytes())
		}
		for key, w := range want {
			g, ok := got[key]
			if !ok || (g != w && !(math.IsNaN(g) && math.IsNaN(w))) {
				t.Errorf("%s = %v (present %t), wrote %v", key, g, ok, w)
			}
		}
	})
}

// writeFuzzedFamilies interprets data as 4-byte instructions (kind, family,
// value, label length) each followed by that many label-value bytes, applies
// them to reg, and returns the samples a scrape must then report, keyed as
// ParseExposition keys them.
func writeFuzzedFamilies(reg *Registry, data []byte) map[string]float64 {
	bounds := []float64{0.5, 1, 2.5}
	want := make(map[string]float64)
	for len(data) >= 4 {
		kind, fam, val, n := data[0]%3, data[1]%2, data[2], int(data[3])%8
		data = data[4:]
		n = min(n, len(data))
		var labels []Label
		if n > 0 {
			labels = []Label{{"v", string(data[:n])}}
		}
		data = data[n:]
		switch kind {
		case 0:
			name := fmt.Sprintf("fuzz_c%d_total", fam)
			reg.Counter(name, "fuzzed\ncounter", labels...).Add(int64(val))
			want[sampleKey(name, labels)] += float64(val)
		case 1:
			// The byte picks an exponent, so gauges cover integers,
			// fractions, huge magnitudes and negatives.
			name := fmt.Sprintf("fuzz_g%d", fam)
			v := math.Ldexp(float64(int(val)-128)/3, int(val)%90-30)
			reg.Gauge(name, `fuzzed\gauge`, labels...).Set(v)
			want[sampleKey(name, labels)] = v
		case 2:
			name := fmt.Sprintf("fuzz_h%d_seconds", fam)
			v := float64(val) / 64
			reg.Histogram(name, "fuzzed histogram", bounds, labels...).Observe(v)
			for _, b := range append(bounds, math.Inf(1)) {
				le := "+Inf"
				if !math.IsInf(b, 1) {
					le = strconv.FormatFloat(b, 'g', -1, 64)
				}
				key := sampleKey(name+"_bucket", append(append([]Label{}, labels...), Label{"le", le}))
				hit := 0.0
				if v <= b {
					hit = 1
				}
				want[key] += hit // registers the bucket even at zero
			}
			want[sampleKey(name+"_sum", labels)] += v
			want[sampleKey(name+"_count", labels)]++
		}
	}
	return want
}
