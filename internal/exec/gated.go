package exec

import (
	"context"
	"fmt"
)

// Gated batch evaluation: the substrate beneath circuit-broken UDF
// invocation. A plain EvalRowsCtx batch fans every row out at once, which
// is perfect for healthy UDFs but gives a circuit breaker nothing to act
// on — by the time outcomes exist, every call has already been made. The
// gated variant splits the batch into segments that act as barriers: the
// gate decides BEFORE each segment which rows may invoke (denied rows are
// resolved by the caller's deny callback, sequentially), the admitted rows
// fan out in parallel, and the outcomes fold back into the gate in row
// order AFTER the segment. All gate interaction happens on the calling
// goroutine, so gate state — and therefore every admit/deny decision — is
// a pure function of the outcome sequence, bit-for-bit identical at any
// parallelism level.

// Gate steers a gated batch. Implementations (e.g. resilience.Breaker)
// need not be goroutine-safe for the batch's sake — all three methods are
// called from the batch's calling goroutine — but typically are, so one
// gate can serve many queries.
type Gate interface {
	// Segment returns the barrier width for the next segment: 0 means "no
	// segmentation" (the remaining batch runs as one wave). Called at each
	// segment boundary, so a gate can switch widths mid-batch.
	Segment() int
	// Plan reports, for each of the next n rows in order, whether the row
	// may invoke.
	Plan(n int) []bool
	// Record folds one segment's admitted outcomes: failed[k] is the k-th
	// admitted row's, in row order. It is called once per segment that
	// admitted a row, and the slice is only valid during the call.
	Record(failed []bool)
}

// EvalRowsGatedCtx evaluates rows with per-row failure reporting and an
// optional gate. eval is invoked for admitted rows (concurrently, up to
// the pool's width) and returns (verdict, failed); deny resolves denied
// rows without invoking (e.g. from a memo or cache) and is called
// sequentially on the calling goroutine. A nil gate admits everything in
// one wave. On cancellation both slices are withheld: (nil, nil, ctx.Err()).
//
// The verdicts and failed slices are index-aligned with rows; a failed row
// always carries verdict false.
func (p *Pool) EvalRowsGatedCtx(
	ctx context.Context,
	rows []int,
	gate Gate,
	eval func(ctx context.Context, row int) (verdict, failed bool),
	deny func(row int) (verdict, failed bool),
) ([]bool, []bool, error) {
	n := len(rows)
	verdicts := make([]bool, n)
	failed := make([]bool, n)
	for start := 0; start < n; {
		width := n - start
		if gate != nil {
			if s := gate.Segment(); s > 0 && s < width {
				width = s
			}
		}
		end := start + width

		var allowed []bool
		if gate != nil {
			allowed = gate.Plan(width)
			if len(allowed) != width {
				return nil, nil, fmt.Errorf("exec: gate planned %d of %d items", len(allowed), width)
			}
		}

		// Resolve denied rows sequentially, collect the admitted work-list:
		// segment-relative indices in row order, or nil when the whole
		// segment was admitted (the healthy case) and item k is row k.
		seg, verdict, fail := rows[start:end], verdicts[start:end], failed[start:end]
		var work []int
		admitted := width
		if denied := countFalse(allowed); denied > 0 {
			admitted -= denied
			work = make([]int, 0, admitted)
			for i, ok := range allowed {
				if ok {
					work = append(work, i)
					continue
				}
				verdict[i], fail[i] = deny(seg[i])
			}
		}

		// Fan the admitted rows out; verdicts land at their own index.
		err := p.ForEachCtx(ctx, admitted, func(k int) {
			i := k
			if work != nil {
				i = work[k]
			}
			verdict[i], fail[i] = eval(ctx, seg[i])
		})
		if err == nil && admitted == 0 {
			// A fully-denied segment makes no ctx checks; normalize so a
			// cancelled caller can't spin through deny-only segments.
			err = ctx.Err()
		}
		if err != nil {
			return nil, nil, err
		}

		// Fold admitted outcomes back in row order, one call per segment.
		if gate != nil && admitted > 0 {
			outcomes := fail
			if work != nil {
				outcomes = make([]bool, admitted)
				for k, i := range work {
					outcomes[k] = fail[i]
				}
			}
			gate.Record(outcomes)
		}
		start = end
	}
	return verdicts, failed, nil
}

func countFalse(bs []bool) int {
	n := 0
	for _, b := range bs {
		if !b {
			n++
		}
	}
	return n
}
