package exec

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// scriptGate is a deterministic Gate that denies a fixed set of rows (by
// plan position) and records the fold order.
type scriptGate struct {
	mu      sync.Mutex
	segment int
	deny    map[int]bool // plan position → denied
	planned int
	folds   []bool
}

func (g *scriptGate) Segment() int { return g.segment }

func (g *scriptGate) Plan(n int) []bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	allowed := make([]bool, n)
	for i := range allowed {
		allowed[i] = !g.deny[g.planned]
		g.planned++
	}
	return allowed
}

func (g *scriptGate) Record(failed []bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.folds = append(g.folds, failed...)
}

func TestEvalRowsGatedNilGateMatchesPlain(t *testing.T) {
	rows := []int{3, 1, 4, 1, 5, 9, 2, 6}
	verdicts, failed, err := NewPool(4).EvalRowsGatedCtx(context.Background(), rows, nil,
		func(_ context.Context, row int) (bool, bool) { return row%2 == 0, row == 9 },
		func(int) (bool, bool) { t.Fatal("deny must not run without a gate"); return false, false },
	)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if verdicts[i] != (row%2 == 0) || failed[i] != (row == 9) {
			t.Fatalf("row %d: verdict=%v failed=%v", row, verdicts[i], failed[i])
		}
	}
}

func TestEvalRowsGatedDeniedRowsUseDeny(t *testing.T) {
	rows := []int{10, 11, 12, 13, 14, 15}
	gate := &scriptGate{segment: 2, deny: map[int]bool{1: true, 4: true}}
	var evaluated []int
	var mu sync.Mutex
	verdicts, failed, err := NewPool(3).EvalRowsGatedCtx(context.Background(), rows, gate,
		func(_ context.Context, row int) (bool, bool) {
			mu.Lock()
			evaluated = append(evaluated, row)
			mu.Unlock()
			return true, false
		},
		func(row int) (bool, bool) { return false, true }, // denied = failed
	)
	if err != nil {
		t.Fatal(err)
	}
	wantDenied := map[int]bool{11: true, 14: true}
	for i, row := range rows {
		if wantDenied[row] != failed[i] || wantDenied[row] == verdicts[i] {
			t.Fatalf("row %d: verdict=%v failed=%v, denied=%v", row, verdicts[i], failed[i], wantDenied[row])
		}
	}
	if len(evaluated) != 4 {
		t.Fatalf("evaluated %d rows, want 4 (2 denied)", len(evaluated))
	}
	// Only admitted rows fold, in row order, one per admitted row.
	if len(gate.folds) != 4 {
		t.Fatalf("folded %d outcomes, want 4", len(gate.folds))
	}
}

func TestEvalRowsGatedDeterministicAcrossParallelism(t *testing.T) {
	rows := make([]int, 100)
	for i := range rows {
		rows[i] = i
	}
	run := func(workers int) ([]bool, []bool, []bool) {
		gate := &scriptGate{segment: 7, deny: map[int]bool{5: true, 50: true, 51: true, 98: true}}
		verdicts, failed, err := NewPool(workers).EvalRowsGatedCtx(context.Background(), rows, gate,
			func(_ context.Context, row int) (bool, bool) { return row%3 == 0, row%10 == 4 },
			func(int) (bool, bool) { return false, true },
		)
		if err != nil {
			t.Fatal(err)
		}
		return verdicts, failed, gate.folds
	}
	v1, f1, folds1 := run(1)
	v8, f8, folds8 := run(8)
	for i := range rows {
		if v1[i] != v8[i] || f1[i] != f8[i] {
			t.Fatalf("row %d differs across parallelism: (%v,%v) vs (%v,%v)", i, v1[i], f1[i], v8[i], f8[i])
		}
	}
	if len(folds1) != len(folds8) {
		t.Fatalf("fold counts differ: %d vs %d", len(folds1), len(folds8))
	}
	for i := range folds1 {
		if folds1[i] != folds8[i] {
			t.Fatalf("fold %d differs across parallelism", i)
		}
	}
}

// TestEvalRowsGatedFoldsInRowOrder holds the fold-point invariant: Record
// runs once per segment at the sequential fold site after the wave, with the
// outcomes in row order, never from a worker. Every row of the wave is in
// flight at once and row i cannot finish before row i+1 has, so completion
// order is the exact reverse of row order — a Record issued from inside the
// worker closure would fold reversed (and, the gate here being
// unsynchronised, trip -race).
func TestEvalRowsGatedFoldsInRowOrder(t *testing.T) {
	const n = 8
	rows := make([]int, n)
	finished := make([]chan struct{}, n+1)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	close(finished[n])
	for i := range rows {
		rows[i] = i
	}
	gate := &unlockedGate{}
	_, failed, err := NewPool(n).EvalRowsGatedCtx(context.Background(), rows, gate,
		func(_ context.Context, row int) (bool, bool) {
			<-finished[row+1]
			close(finished[row])
			return true, row%3 == 0
		},
		func(int) (bool, bool) { t.Error("nothing is denied"); return false, true },
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(gate.folds) != n || gate.records != 1 {
		t.Fatalf("folded %d outcomes in %d Record calls, want %d in 1 (one wave)", len(gate.folds), gate.records, n)
	}
	for i := range rows {
		if gate.folds[i] != failed[i] {
			t.Fatalf("fold %d = %v, want row %d's outcome %v: folds %v are not in row order", i, gate.folds[i], i, failed[i], gate.folds)
		}
	}
}

// unlockedGate admits everything in one wave and records the fold sequence
// without synchronisation: the Gate contract promises all three methods run
// on the calling goroutine.
type unlockedGate struct {
	folds   []bool
	records int
}

func (g *unlockedGate) Segment() int { return 0 }
func (g *unlockedGate) Plan(n int) []bool {
	allowed := make([]bool, n)
	for i := range allowed {
		allowed[i] = true
	}
	return allowed
}
func (g *unlockedGate) Record(failed []bool) {
	g.folds = append(g.folds, failed...)
	g.records++
}

func TestEvalRowsGatedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows := []int{1, 2, 3}
	v, f, err := NewPool(2).EvalRowsGatedCtx(ctx, rows, nil,
		func(_ context.Context, _ int) (bool, bool) { return true, false },
		func(int) (bool, bool) { return false, true },
	)
	if !errors.Is(err, context.Canceled) || v != nil || f != nil {
		t.Fatalf("got v=%v f=%v err=%v, want withheld slices and context.Canceled", v, f, err)
	}
}

// denyAllGate denies everything forever: without the deny-only ctx check a
// cancelled caller would spin through segments making no progress checks.
type denyAllGate struct{}

func (denyAllGate) Segment() int { return 4 }
func (denyAllGate) Plan(n int) []bool {
	return make([]bool, n)
}
func (denyAllGate) Record([]bool) {}

func TestEvalRowsGatedDenyOnlySegmentsHonorCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows := make([]int, 1000)
	_, _, err := NewPool(2).EvalRowsGatedCtx(ctx, rows, denyAllGate{},
		func(_ context.Context, _ int) (bool, bool) { t.Fatal("nothing is admitted"); return false, false },
		func(int) (bool, bool) { return false, true },
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled even when every segment is deny-only", err)
	}
}
