package stats

// Key names one family of per-row draws: a draw is a pure function of
// (key, row), not the next value of a stream, so it never depends on how
// many draws came before it, in which order, or on how many workers.
type Key uint64

// Sub derives the child key tagged tag: an engine's approximate
// statements by ordinal, a statement's stages by name.
func (k Key) Sub(tag uint64) Key { return Key(Mix64(Mix64(uint64(k)) ^ tag)) }

// Rank is row's uniform 64-bit draw under k, distinct per row (Mix64 is a
// bijection): a set's t lowest-ranked rows are a uniform t-subset.
func (k Key) Rank(row int) uint64 { return Mix64(uint64(k) + uint64(row)) }

// Bernoulli reports row's coin under k: true with probability p, which is
// clamped to [0,1].
func (k Key) Bernoulli(row int, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(k.Rank(row)>>11)*0x1p-53 < p
}
