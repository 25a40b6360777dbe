// Package suppress exercises the //predlint:allow grammar end to end:
// same-line and line-above scopes suppress; directives without a reason or
// naming an unknown analyzer are findings themselves; an uncovered
// violation survives.
package suppress

import (
	"math/rand"
	"time"
)

func sameLine() int {
	return rand.Int() //predlint:allow detrand — same-line scope under test
}

func lineAbove() time.Time {
	//predlint:allow detrand — line-above scope under test
	return time.Now()
}

func unsuppressed() int {
	return rand.Int()
}

func noReason() {
	//predlint:allow gospawn
	go func() {}()
}

//predlint:allow nosuchcheck — the analyzer name is validated too
func unknownAnalyzer() int {
	return 0
}
